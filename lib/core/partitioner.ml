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

(* Cheapest feasible backend for a node set; memoized by the caller.
   [scored] counts the sets priced by one search (see [instrumented]). *)
let best_backend ~scored ~profile ~est ~backends g ids =
  incr scored;
  List.fold_left
    (fun best backend ->
       match Cost.job_cost ~profile ~graph:g ~est backend ids with
       | Cost.Infeasible _ -> best
       | Cost.Finite c -> (
         match best with
         | Some (_, c') when c' <= c -> best
         | _ -> Some (backend, c)))
    None backends

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
let op_adjacency (g : Ir.Dag.t) =
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
                (Ir.Dag.consumers g i))
         n.inputs)
    ops;
  fun id -> Option.value (Hashtbl.find_opt adj id) ~default:[]

let key_of_ids ids = String.concat "," (List.map string_of_int ids)

let exhaustive_generic ~scored ~memoize ~profile ~est ~backends (g : Ir.Dag.t) =
  let ops = op_nodes g in
  let adjacency = op_adjacency g in
  let set_cost_memo : (string, (Engines.Backend.t * float) option) Hashtbl.t =
    Hashtbl.create 256
  in
  (* the paper's algorithm re-scores every candidate set as it recurses
     (§5.1.1, "requires exponential time in the number of operators");
     [memoize] enables the caching variant this reproduction adds *)
  let set_cost ids =
    if not memoize then
      if Ir.Dag.convex g ids then
        best_backend ~scored ~profile ~est ~backends g ids
      else None
    else begin
      let key = key_of_ids ids in
      match Hashtbl.find_opt set_cost_memo key with
      | Some v -> v
      | None ->
        let v =
          if Ir.Dag.convex g ids then
            best_backend ~scored ~profile ~est ~backends g ids
          else None
        in
        Hashtbl.add set_cost_memo key v;
        v
    end
  in
  (* all connected sets containing [seed], drawn from [allowed] *)
  let connected_sets seed allowed =
    let allowed_tbl = Hashtbl.create 16 in
    List.iter (fun id -> Hashtbl.replace allowed_tbl id ()) allowed;
    let results = ref [] in
    let seen = Hashtbl.create 64 in
    let rec grow set frontier =
      let key = key_of_ids (List.sort compare set) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        results := List.sort compare set :: !results;
        List.iteri
          (fun i next ->
             (* only extend with frontier suffix to avoid duplicates *)
             let rest = List.filteri (fun j _ -> j > i) frontier in
             let new_neighbours =
               List.filter
                 (fun x ->
                    Hashtbl.mem allowed_tbl x
                    && (not (List.mem x set))
                    && not (List.mem x frontier))
                 (adjacency next)
             in
             grow (next :: set) (rest @ new_neighbours))
          frontier
      end
    in
    let init_neighbours =
      List.filter (fun x -> Hashtbl.mem allowed_tbl x) (adjacency seed)
    in
    grow [ seed ] init_neighbours;
    !results
  in
  let best_partition_memo : (string, (float * (Engines.Backend.t * int list) list) option) Hashtbl.t =
    Hashtbl.create 256
  in
  let rec best_partition remaining =
    match remaining with
    | [] -> Some (0., [])
    | seed :: _ ->
      let compute () =
        List.fold_left
          (fun best set ->
             match set_cost set with
             | None -> best
             | Some (backend, c) -> (
               (* [set] as a hash set: the List.mem scan made this
                  subtraction quadratic on wide frontiers *)
               let in_set : (int, unit) Hashtbl.t =
                 Hashtbl.create (2 * List.length set)
               in
               List.iter (fun id -> Hashtbl.replace in_set id ()) set;
               let rest =
                 List.filter (fun id -> not (Hashtbl.mem in_set id)) remaining
               in
               match best_partition rest with
               | None -> best
               | Some (rest_cost, rest_jobs) -> (
                 let total = c +. rest_cost in
                 match best with
                 | Some (b, _) when b <= total -> best
                 | _ -> Some (total, (backend, set) :: rest_jobs))))
          None
          (connected_sets seed remaining)
      in
      if not memoize then compute ()
      else begin
        let key = key_of_ids remaining in
        match Hashtbl.find_opt best_partition_memo key with
        | Some v -> v
        | None ->
          let v = compute () in
          Hashtbl.add best_partition_memo key v;
          v
      end
  in
  match best_partition (List.map (fun (n : Ir.Operator.node) -> n.id) ops) with
  | None -> None
  | Some (cost_s, jobs) -> Some { jobs = order_jobs g jobs; cost_s }

(* span + search-size telemetry shared by every public search strategy *)
let instrumented ~strategy g f =
  Obs.Trace.with_span
    ~attrs:[ ("strategy", Obs.Trace.String strategy);
             ("operators", Obs.Trace.Int (Ir.Dag.operator_count g)) ]
    "partition"
  @@ fun () ->
  let scored = ref 0 in
  let plan = f scored in
  let scored = !scored in
  Obs.Trace.add_attr "sets_scored" (Obs.Trace.Int scored);
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
  instrumented ~strategy:"exhaustive" g (fun scored ->
      exhaustive_generic ~scored ~memoize:false ~profile ~est ~backends g)

let exhaustive_memoized ~profile ~est ~backends g =
  instrumented ~strategy:"exhaustive-memo" g (fun scored ->
      exhaustive_generic ~scored ~memoize:true ~profile ~est ~backends g)

(* ------------------------- dynamic heuristic ------------------------- *)

let dynamic_over_order ~scored ~profile ~est ~backends (g : Ir.Dag.t) order =
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
          match best_backend ~scored ~profile ~est ~backends g segment with
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

let dynamic_impl ~scored ~profile ~est ~backends (g : Ir.Dag.t) =
  let order =
    List.filter
      (fun (n : Ir.Operator.node) ->
         match n.kind with Ir.Operator.Input _ -> false | _ -> true)
      (Ir.Dag.topological_order g)
  in
  dynamic_over_order ~scored ~profile ~est ~backends g order

let dynamic ~profile ~est ~backends (g : Ir.Dag.t) =
  instrumented ~strategy:"dynamic" g (fun scored ->
      dynamic_impl ~scored ~profile ~est ~backends g)

let dynamic_multi_order ?(orders = 8) ~profile ~est ~backends (g : Ir.Dag.t) =
  instrumented ~strategy:"dynamic-multi-order" g @@ fun scored ->
  let candidates = Ir.Dag.topological_orders ~limit:orders g in
  List.fold_left
    (fun best order ->
       let order =
         List.filter
           (fun (n : Ir.Operator.node) ->
              match n.kind with Ir.Operator.Input _ -> false | _ -> true)
           order
       in
       match dynamic_over_order ~scored ~profile ~est ~backends g order with
       | None -> best
       | Some plan -> (
         match best with
         | Some b when b.cost_s <= plan.cost_s -> best
         | _ -> Some plan))
    None candidates

let no_merging ~profile ~est ~backends (g : Ir.Dag.t) =
  instrumented ~strategy:"no-merging" g @@ fun scored ->
  let ops = op_nodes g in
  let jobs =
    List.map
      (fun (n : Ir.Operator.node) ->
         match best_backend ~scored ~profile ~est ~backends g [ n.id ] with
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
    instrumented ~strategy:"auto/exhaustive-memo" g (fun scored ->
        exhaustive_generic ~scored ~memoize:true ~profile ~est ~backends g)
  else
    instrumented ~strategy:"auto/dynamic" g (fun scored ->
        dynamic_impl ~scored ~profile ~est ~backends g)
