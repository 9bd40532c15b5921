type verdict =
  | Finite of float
  | Infeasible of string

let is_finite = function
  | Finite _ -> true
  | Infeasible _ -> false

let seconds = function
  | Finite s -> s
  | Infeasible _ -> infinity

(* ---- volume estimation for a candidate job ---- *)

(* Process charges among [ids]: the row-local members of a chain
   entirely inside the candidate job price as merged operators
   ({!Engines.Perf.charges}), exactly as the executor prices them; a
   JOIN head is charged as the solo JOIN, so a lone SELECT after it
   prices as a solo SELECT. A chain that crosses the job boundary is
   not merged at execution either (the crossing node becomes a job
   output, a fusion barrier), so it keeps per-node pricing. The chains
   are [est]'s, planned once per graph. *)
let charges ~est ~graph ids =
  let in_set = Hashtbl.create 8 in
  List.iter (fun id -> Hashtbl.replace in_set id ()) ids;
  Engines.Perf.charges (Estimator.fusion est) graph
    ~within:(Hashtbl.mem in_set)

(* process/comm volumes of one WHILE body pass, with the loop inputs
   bound to the estimated sizes of the WHILE node's producers *)
let rec body_pass_volumes ~est ~graph (n : Ir.Operator.node) body =
  let ins =
    List.map (fun i -> Estimator.output_mb est i) n.Ir.Operator.inputs
  in
  let bound = Hashtbl.create 8 in
  (try
     List.iter2
       (fun (bn : Ir.Operator.node) mb ->
          match bn.kind with
          | Ir.Operator.Input { relation } -> Hashtbl.replace bound relation mb
          | _ -> ())
       (Ir.Dag.sources body) ins
   with Invalid_argument _ -> ());
  (* mirror the executor: the loop driver reads the condition relation
     by name, so its producer is a fusion barrier inside the body *)
  let protect =
    match n.Ir.Operator.kind with
    | Ir.Operator.While { condition = Ir.Operator.Until_empty r; _ }
    | Ir.Operator.While { condition = Ir.Operator.Until_fixpoint r; _ } ->
      [ r ]
    | _ -> []
  in
  let inner_est =
    Estimator.build ~protect
      ~input_mb:(fun r -> Hashtbl.find_opt bound r)
      ~history:(History.create ()) ~workflow:"body" body
  in
  let charges =
    charges ~est:inner_est ~graph:body
      (List.map (fun (bn : Ir.Operator.node) -> bn.id) body.Ir.Operator.nodes)
  in
  List.fold_left
    (fun (process, comm, shuffles) (bn : Ir.Operator.node) ->
       match bn.kind with
       | Ir.Operator.Input _ -> (process, comm, shuffles)
       | Ir.Operator.While _ as k ->
         let p, c, s = body_pass_volumes ~est:inner_est ~graph bn
             (match k with
              | Ir.Operator.While { body; _ } -> body
              | _ -> assert false)
         in
         let iters = float_of_int (Estimator.iterations k) in
         (process +. (iters *. p), comm +. (iters *. c), shuffles + s)
       | kind ->
         let in_mb = Estimator.input_mb inner_est bn.id in
         let process =
           process +. Engines.Perf.process_mb charges bn.id kind ~in_mb
         in
         if Ir.Operator.needs_shuffle kind then
           (process, comm +. in_mb, shuffles + 1)
         else (process, comm, shuffles))
    (0., 0., 0) body.Ir.Operator.nodes

let job_volumes ~graph ~est ids =
  let in_set = Hashtbl.create 8 in
  List.iter (fun id -> Hashtbl.replace in_set id ()) ids;
  (* pulled data: distinct producers outside the set + INPUT nodes inside *)
  let pulled = Hashtbl.create 8 in
  List.iter
    (fun id ->
       let n = Ir.Dag.node graph id in
       match n.kind with
       | Ir.Operator.Input _ -> Hashtbl.replace pulled n.id ()
       | _ ->
         List.iter
           (fun i ->
              if not (Hashtbl.mem in_set i) then Hashtbl.replace pulled i ())
           n.inputs)
    ids;
  (* the executor charges each HDFS relation once per job however many
     INPUT nodes name it — price the scan once too *)
  let input_mb =
    let seen_rel = Hashtbl.create 4 in
    Hashtbl.fold
      (fun id () acc ->
         let duplicate =
           match (Ir.Dag.node graph id).Ir.Operator.kind with
           | Ir.Operator.Input { relation } ->
             if Hashtbl.mem seen_rel relation then true
             else begin
               Hashtbl.replace seen_rel relation ();
               false
             end
           | _ -> false
         in
         if duplicate then acc else acc +. Estimator.output_mb est id)
      pulled 0.
  in
  let output_mb =
    List.fold_left
      (fun acc (n : Ir.Operator.node) ->
         acc +. Estimator.output_mb est n.id)
      0.
      (Ir.Dag.external_outputs graph ids)
  in
  let charges = charges ~est ~graph ids in
  let process_mb, comm_mb, iterations =
    List.fold_left
      (fun (process, comm, iters) id ->
         let n = Ir.Dag.node graph id in
         match n.kind with
         | Ir.Operator.Input _ -> (process, comm, iters)
         | Ir.Operator.While { body; _ } as k ->
           let p, c, _ = body_pass_volumes ~est ~graph n body in
           let k_iters = Estimator.iterations k in
           let fi = float_of_int k_iters in
           (process +. (fi *. p), comm +. (fi *. c), max iters k_iters)
         | kind ->
           let in_mb = Estimator.input_mb est id in
           let process =
             process +. Engines.Perf.process_mb charges id kind ~in_mb
           in
           if Ir.Operator.needs_shuffle kind then
             (process, comm +. in_mb, iters)
           else (process, comm, iters))
      (0., 0., 1) ids
  in
  { Engines.Perf.input_mb; output_mb; load_mb = input_mb;
    process_mb; scan_extra_mb = 0.; comm_mb; iterations }

(* per-iteration job-chain pricing for WHILE on MapReduce engines *)
let expanded_while_cost ~rates ~est ~graph (n : Ir.Operator.node) body kind =
  let process, comm, shuffles = body_pass_volumes ~est ~graph n body in
  let iters = float_of_int (Estimator.iterations kind) in
  let jobs_per_iter = float_of_int (max 1 shuffles) in
  let input_mb =
    List.fold_left
      (fun acc i -> acc +. Estimator.output_mb est i)
      0. n.Ir.Operator.inputs
  in
  let r = rates in
  let per_iter =
    (jobs_per_iter *. r.Engines.Perf.overhead_s)
    +. (process /. r.Engines.Perf.process_mb_s)
    +. (comm /. r.Engines.Perf.comm_mb_s)
    (* intermediates are materialized to HDFS between chained jobs *)
    +. (comm /. r.Engines.Perf.push_mb_s)
    +. (comm /. r.Engines.Perf.pull_mb_s)
  in
  (iters *. per_iter)
  +. (input_mb /. r.Engines.Perf.pull_mb_s)
  +. (Estimator.output_mb est n.Ir.Operator.id /. r.Engines.Perf.push_mb_s)

(* §5.2: on a first run Musketeer only merges selective operators and
   generative operators with small output bounds; an operator with an
   unknown output bound (JOIN, CROSS, UDF) may not feed another operator
   inside the same job until history has tightened its bound *)
let conservative_merge_violation ~graph ~est ids =
  List.find_map
    (fun id ->
       let n = Ir.Dag.node graph id in
       let unbounded =
         match n.Ir.Operator.kind with
         | Ir.Operator.While _ | Ir.Operator.Input _ -> false
         | kind ->
           (Ir.Sizing.of_kind kind ~inputs:[ 1. ]).Ir.Sizing.upper = None
       in
       if
         unbounded
         && (not (Estimator.from_history est id))
         && List.exists
              (fun c -> List.mem c ids)
              (Ir.Dag.consumers graph id)
       then Some n
       else None)
    ids

let job_cost ~profile ~graph ~est backend ids =
  match Support.check backend graph ids with
  | Error reason -> Infeasible reason
  | Ok () ->
    match conservative_merge_violation ~graph ~est ids with
    | Some n ->
      Infeasible
        (Printf.sprintf
           "no size bound for %s output (node %d) without history"
           (Ir.Operator.kind_name n.Ir.Operator.kind)
           n.Ir.Operator.id)
    | None ->
      let rates = Profile.rates profile backend in
    let expanded_while =
      match Support.while_support backend, ids with
      | Support.Expand_per_iteration, [ id ] -> (
        let n = Ir.Dag.node graph id in
        match n.kind with
        | Ir.Operator.While { body; _ } as kind ->
          Some (expanded_while_cost ~rates ~est ~graph n body kind)
        | _ -> None)
      | _ -> None
    in
    (* ledger-fitted per-engine correction; 1.0 without calibration *)
    let factor = Profile.factor profile (Engines.Backend.name backend) in
    (match expanded_while with
     | Some cost -> Finite (factor *. cost)
     | None ->
       let volumes = job_volumes ~graph ~est ids in
       let _, total = Engines.Perf.makespan rates volumes in
       Finite (factor *. total))

(* Plan-time pricing of a common-subplan cut (docs/serving.md): an
   attached or cached prefix is replaced by a synthetic INPUT, so the
   partitioner automatically sees zero compute and one HDFS read of
   [read_mb] for it. The [saved_mb] side aggregates the modeled
   volumes an attacher skips — the cone's deduped input pulls, its
   processing and its shuffle traffic. The serving layer materializes
   a prefix only when saved exceeds read, so sharing never inflates
   the modeled makespan. *)
let subplan_cut ~graph ~est id =
  let cone = Ir.Dag.cone graph id in
  let read_mb = Estimator.output_mb est id in
  let v = job_volumes ~graph ~est cone in
  ( read_mb,
    v.Engines.Perf.input_mb +. v.Engines.Perf.process_mb
    +. v.Engines.Perf.comm_mb )

let plan_cost ~profile ~graph ~est plan =
  List.fold_left
    (fun acc (backend, ids) ->
       match acc with
       | Infeasible _ -> acc
       | Finite total -> (
         match job_cost ~profile ~graph ~est backend ids with
         | Finite c -> Finite (total +. c)
         | Infeasible _ as inf -> inf))
    (Finite 0.) plan
