type plan = {
  jobs : (Engines.Backend.t * int list) list;
  cost_s : float;
}

let pp_plan ppf plan =
  Format.fprintf ppf "estimated cost %.1fs@." plan.cost_s;
  List.iteri
    (fun i (backend, ids) ->
       Format.fprintf ppf "  job %d on %-10s ops [%s]@." i
         (Engines.Backend.name backend)
         (String.concat "; " (List.map string_of_int ids)))
    plan.jobs

let op_nodes (g : Ir.Dag.t) =
  List.filter
    (fun (n : Ir.Operator.node) ->
       match n.kind with Ir.Operator.Input _ -> false | _ -> true)
    g.Ir.Operator.nodes

(* What one search did: the candidate sets it priced, and how many of
   those needed their volumes (a set no backend admits needs none). *)
type tally = {
  mutable scored : int;
  mutable priced : int;
}

(* Cheapest feasible backend for a node set; memoized by the caller.
   The set is priced once ({!Cost.job}): each backend then costs only
   its admission check and its rates applied to the shared volumes. *)
let best_backend ~tally ~profile ~est ~backends ids =
  tally.scored <- tally.scored + 1;
  let job = Cost.job ~est ids in
  let best =
    List.fold_left
      (fun best backend ->
         match Cost.price ~profile job backend with
         | Error _ -> best
         | Ok c -> (
           match best with
           | Some (_, c') when c' <= c -> best
           | _ -> Some (backend, c)))
      None backends
  in
  tally.priced <- tally.priced + Cost.volumes_priced job;
  best

let order_jobs g jobs =
  let partition = List.map snd jobs in
  let assoc =
    List.map (fun (backend, ids) -> (List.sort compare ids, backend)) jobs
  in
  List.map
    (fun ids ->
       let key = List.sort compare ids in
       (List.assoc key assoc, ids))
    (Jobgraph.job_order g partition)

(* ------------------------- exhaustive ------------------------- *)

(* Operator adjacency: direct edges between operator nodes, plus
   "siblings" reading the same INPUT node — they can share a scan. *)
let op_adjacency ~est (g : Ir.Dag.t) =
  let adj : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let add a b =
    let cur = Option.value (Hashtbl.find_opt adj a) ~default:[] in
    if not (List.mem b cur) then Hashtbl.replace adj a (b :: cur)
  in
  let ops = op_nodes g in
  (* membership tests run once per edge endpoint — a linear scan over
     [ops] each time made adjacency construction O(nodes²) *)
  let op_ids : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (n : Ir.Operator.node) -> Hashtbl.replace op_ids n.id ())
    ops;
  let is_op id = Hashtbl.mem op_ids id in
  List.iter
    (fun (n : Ir.Operator.node) ->
       List.iter
         (fun i ->
            if is_op i then begin
              add n.id i;
              add i n.id
            end
            else
              (* sibling consumers of the same workflow input *)
              List.iter
                (fun c ->
                   if c <> n.id && is_op c then begin
                     add n.id c;
                     add c n.id
                   end)
                (Estimator.consumers est i))
         n.inputs)
    ops;
  fun id -> Option.value (Hashtbl.find_opt adj id) ~default:[]

let exhaustive_generic ~tally ~memoize ~profile ~est ~backends (g : Ir.Dag.t) =
  let ops = List.map (fun (n : Ir.Operator.node) -> n.id) (op_nodes g) in
  if List.length ops >= Sys.int_size then
    invalid_arg "Partitioner: too many operators for an exhaustive search";
  let adjacency = op_adjacency ~est g in
  (* an operator set is the int mask of its operators' positions *)
  let bits : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iteri (fun i id -> Hashtbl.replace bits id (1 lsl i)) ops;
  let bit id = Hashtbl.find bits id in
  (* the operators reachable from [id] along [next] edges, as a mask *)
  let reach next =
    let memo : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let rec go id =
      match Hashtbl.find_opt memo id with
      | Some m -> m
      | None ->
        let m =
          List.fold_left
            (fun m j -> if Hashtbl.mem bits j then m lor bit j lor go j else m)
            0 (next id)
        in
        Hashtbl.replace memo id m;
        m
    in
    go
  in
  let below = reach (fun id -> (Estimator.node est id).Ir.Operator.inputs)
  and above = reach (Estimator.consumers est) in
  (* as {!Ir.Dag.convex}: no operator outside the set lies both above
     and below it *)
  let convex mask ids =
    let up, down =
      List.fold_left
        (fun (up, down) id -> (up lor above id, down lor below id))
        (0, 0) ids
    in
    up land down land lnot mask = 0
  in
  let score mask ids =
    if convex mask ids then best_backend ~tally ~profile ~est ~backends ids
    else None
  in
  let set_cost_memo : (int, (Engines.Backend.t * float) option) Hashtbl.t =
    Hashtbl.create 256
  in
  (* the paper's algorithm re-scores every candidate set as it recurses
     (§5.1.1, "requires exponential time in the number of operators");
     [memoize] enables the caching variant this reproduction adds *)
  let set_cost mask ids =
    if not memoize then score mask ids
    else
      match Hashtbl.find_opt set_cost_memo mask with
      | Some v -> v
      | None ->
        let v = score mask ids in
        Hashtbl.add set_cost_memo mask v;
        v
  in
  (* all connected sets containing [seed], drawn from the [allowed]
     mask, each with its mask *)
  let connected_sets seed allowed =
    let results = ref [] in
    let seen : (int, unit) Hashtbl.t = Hashtbl.create 64 in
    let rec grow set mask frontier =
      if not (Hashtbl.mem seen mask) then begin
        Hashtbl.add seen mask ();
        results := (mask, List.sort compare set) :: !results;
        List.iteri
          (fun i next ->
             (* only extend with frontier suffix to avoid duplicates *)
             let rest = List.filteri (fun j _ -> j > i) frontier in
             let new_neighbours =
               List.filter
                 (fun x ->
                    allowed land bit x <> 0
                    && mask land bit x = 0
                    && not (List.mem x frontier))
                 (adjacency next)
             in
             grow (next :: set) (mask lor bit next) (rest @ new_neighbours))
          frontier
      end
    in
    let init_neighbours =
      List.filter (fun x -> allowed land bit x <> 0) (adjacency seed)
    in
    grow [ seed ] (bit seed) init_neighbours;
    !results
  in
  let best_partition_memo :
    (int, (float * (Engines.Backend.t * int list) list) option) Hashtbl.t =
    Hashtbl.create 256
  in
  let rec best_partition remaining remaining_mask =
    match remaining with
    | [] -> Some (0., [])
    | seed :: _ ->
      let compute () =
        List.fold_left
          (fun best (mask, set) ->
             match set_cost mask set with
             | None -> best
             | Some (backend, c) -> (
               let rest =
                 List.filter (fun id -> mask land bit id = 0) remaining
               in
               match best_partition rest (remaining_mask land lnot mask) with
               | None -> best
               | Some (rest_cost, rest_jobs) -> (
                 let total = c +. rest_cost in
                 match best with
                 | Some (b, _) when b <= total -> best
                 | _ -> Some (total, (backend, set) :: rest_jobs))))
          None
          (connected_sets seed remaining_mask)
      in
      if not memoize then compute ()
      else begin
        match Hashtbl.find_opt best_partition_memo remaining_mask with
        | Some v -> v
        | None ->
          let v = compute () in
          Hashtbl.add best_partition_memo remaining_mask v;
          v
      end
  in
  match best_partition ops ((1 lsl List.length ops) - 1) with
  | None -> None
  | Some (cost_s, jobs) -> Some { jobs = order_jobs g jobs; cost_s }

(* span + search-size telemetry shared by every public search strategy *)
let instrumented ~strategy g f =
  Obs.Trace.with_span
    ~attrs:[ ("strategy", Obs.Trace.String strategy);
             ("operators", Obs.Trace.Int (Ir.Dag.operator_count g)) ]
    "partition"
  @@ fun () ->
  let tally = { scored = 0; priced = 0 } in
  let plan = f tally in
  let scored = tally.scored in
  Obs.Trace.add_attr "sets_scored" (Obs.Trace.Int scored);
  Obs.Trace.add_attr "volumes_priced" (Obs.Trace.Int tally.priced);
  Obs.Metrics.incr Obs.Metrics.default ("partition." ^ strategy);
  Obs.Metrics.observe Obs.Metrics.default "partition.sets_scored"
    (float_of_int scored);
  (match plan with
   | Some p ->
     Obs.Trace.add_attr "jobs" (Obs.Trace.Int (List.length p.jobs));
     Obs.Trace.add_attr "cost_s" (Obs.Trace.Float p.cost_s)
   | None -> Obs.Trace.add_attr "feasible" (Obs.Trace.Bool false));
  plan

let exhaustive ~profile ~est ~backends g =
  instrumented ~strategy:"exhaustive" g (fun tally ->
      exhaustive_generic ~tally ~memoize:false ~profile ~est ~backends g)

let exhaustive_memoized ~profile ~est ~backends g =
  instrumented ~strategy:"exhaustive-memo" g (fun tally ->
      exhaustive_generic ~tally ~memoize:true ~profile ~est ~backends g)

(* ------------------------- dynamic heuristic ------------------------- *)

let dynamic_over_order ~tally ~profile ~est ~backends (g : Ir.Dag.t) order =
  let ops = Array.of_list order in
  let n = Array.length ops in
  if n = 0 then Some { jobs = []; cost_s = 0. }
  else begin
    (* best.(i) = cheapest way to run the first i operators; segment
       costs come from the cost function, which prices each contiguous
       run of operators as one job on its cheapest engine *)
    let best = Array.make (n + 1) None in
    best.(0) <- Some (0., []);
    for i = 1 to n do
      for k = 0 to i - 1 do
        match best.(k) with
        | None -> ()
        | Some (cost_k, jobs_k) -> (
          let segment =
            Array.to_list (Array.sub ops k (i - k))
            |> List.map (fun (node : Ir.Operator.node) -> node.id)
          in
          match best_backend ~tally ~profile ~est ~backends segment with
          | None -> ()
          | Some (backend, c) -> (
            let total = cost_k +. c in
            match best.(i) with
            | Some (existing, _) when existing <= total -> ()
            | _ -> best.(i) <- Some (total, (backend, segment) :: jobs_k)))
      done
    done;
    match best.(n) with
    | None -> None
    | Some (cost_s, jobs) ->
      Some { jobs = order_jobs g (List.rev jobs); cost_s }
  end

let dynamic_impl ~tally ~profile ~est ~backends (g : Ir.Dag.t) =
  let order =
    List.filter
      (fun (n : Ir.Operator.node) ->
         match n.kind with Ir.Operator.Input _ -> false | _ -> true)
      (Ir.Dag.topological_order g)
  in
  dynamic_over_order ~tally ~profile ~est ~backends g order

let dynamic ~profile ~est ~backends (g : Ir.Dag.t) =
  instrumented ~strategy:"dynamic" g (fun tally ->
      dynamic_impl ~tally ~profile ~est ~backends g)

let dynamic_multi_order ?(orders = 8) ~profile ~est ~backends (g : Ir.Dag.t) =
  instrumented ~strategy:"dynamic-multi-order" g @@ fun tally ->
  let candidates = Ir.Dag.topological_orders ~limit:orders g in
  List.fold_left
    (fun best order ->
       let order =
         List.filter
           (fun (n : Ir.Operator.node) ->
              match n.kind with Ir.Operator.Input _ -> false | _ -> true)
           order
       in
       match dynamic_over_order ~tally ~profile ~est ~backends g order with
       | None -> best
       | Some plan -> (
         match best with
         | Some b when b.cost_s <= plan.cost_s -> best
         | _ -> Some plan))
    None candidates

let no_merging ~profile ~est ~backends (g : Ir.Dag.t) =
  instrumented ~strategy:"no-merging" g @@ fun tally ->
  let ops = op_nodes g in
  let jobs =
    List.map
      (fun (n : Ir.Operator.node) ->
         match best_backend ~tally ~profile ~est ~backends [ n.id ] with
         | Some (backend, c) -> Some (backend, [ n.id ], c)
         | None -> None)
      ops
  in
  if List.exists Option.is_none jobs then None
  else
    let jobs = List.filter_map Fun.id jobs in
    let cost_s = List.fold_left (fun acc (_, _, c) -> acc +. c) 0. jobs in
    let jobs = List.map (fun (b, ids, _) -> (b, ids)) jobs in
    Some { jobs = order_jobs g jobs; cost_s }

let partition ?(threshold = 13) ~profile ~est ~backends (g : Ir.Dag.t) =
  (* the memoized exhaustive search returns the same optimum as the
     paper's plain enumeration (a tested invariant), just faster *)
  if Ir.Dag.operator_count g <= threshold then
    instrumented ~strategy:"auto/exhaustive-memo" g (fun tally ->
        exhaustive_generic ~tally ~memoize:true ~profile ~est ~backends g)
  else
    instrumented ~strategy:"auto/dynamic" g (fun tally ->
        dynamic_impl ~tally ~profile ~est ~backends g)
