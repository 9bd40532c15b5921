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

let job_volumes ~est ids =
  let in_set = Hashtbl.create 8 in
  List.iter (fun id -> Hashtbl.replace in_set id ()) ids;
  (* pulled data: distinct producers outside the set + INPUT nodes inside *)
  let pulled = Hashtbl.create 8 in
  List.iter
    (fun id ->
       let n = Estimator.node est id in
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
           match (Estimator.node est id).Ir.Operator.kind with
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
  (* outputs leaving the set, in node order: a workflow output or a
     node read outside the set *)
  let output_mb =
    List.fold_left
      (fun acc (n : Ir.Operator.node) ->
         if
           Hashtbl.mem in_set n.id
           && (Estimator.is_output est n.id
               || List.exists
                    (fun c -> not (Hashtbl.mem in_set c))
                    (Estimator.consumers est n.id))
         then acc +. Estimator.output_mb est n.id
         else acc)
      0. (Estimator.graph est).Ir.Operator.nodes
  in
  (* the row-local members of a chain entirely inside the job price as
     merged operators ({!Engines.Perf.charges}), exactly as the
     executor prices them; a JOIN head is charged as the solo JOIN, so
     a lone SELECT after it prices as a solo SELECT. A chain that
     crosses the job boundary is not merged at execution either (the
     crossing node becomes a job output, a fusion barrier), so it keeps
     per-node pricing. *)
  let charges = Estimator.charges est ~within:(Hashtbl.mem in_set) in
  let process_mb, comm_mb, iterations =
    List.fold_left
      (fun (process, comm, iters) id ->
         match (Estimator.node est id).kind with
         | Ir.Operator.Input _ -> (process, comm, iters)
         | Ir.Operator.While _ as k ->
           let p, c, _ = Estimator.body_pass est id in
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
let expanded_while_cost ~rates ~est (n : Ir.Operator.node) =
  let process, comm, shuffles = Estimator.body_pass est n.id in
  let iters = float_of_int (Estimator.iterations n.kind) in
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
let conservative_merge_violation ~est ids =
  List.find_map
    (fun id ->
       let n = Estimator.node est id in
       let unbounded =
         match n.Ir.Operator.kind with
         | Ir.Operator.While _ | Ir.Operator.Input _ -> false
         | kind ->
           (Ir.Sizing.of_kind kind ~inputs:[ 1. ]).Ir.Sizing.upper = None
       in
       if
         unbounded
         && (not (Estimator.from_history est id))
         && List.exists (fun c -> List.mem c ids) (Estimator.consumers est id)
       then Some n
       else None)
    ids

(* ---- one candidate job, priced once per set ---- *)

type job = {
  est : Estimator.t;
  ids : int list;
  shape : Support.shape;
  unbounded : Ir.Operator.node option Lazy.t;
  lone_while : Ir.Operator.node option;
  mutable volumes : Engines.Perf.volumes option;
  mutable volumes_priced : int;
}

let job ~est ids =
  let nodes = List.map (Estimator.node est) ids in
  let lone_while =
    match nodes with
    | [ ({ Ir.Operator.kind = Ir.Operator.While _; _ } as n) ] -> Some n
    | _ -> None
  in
  let vertex_centric =
    lazy
      (match ids with [ id ] -> Estimator.vertex_centric est id | _ -> false)
  in
  { est;
    ids;
    shape =
      Support.shape
        (List.map (fun (n : Ir.Operator.node) -> n.kind) nodes)
        ~vertex_centric;
    unbounded = lazy (conservative_merge_violation ~est ids);
    lone_while;
    volumes = None;
    volumes_priced = 0 }

(* computed on first use: a set no backend admits needs no volumes *)
let volumes job =
  match job.volumes with
  | Some v -> v
  | None ->
    let v = job_volumes ~est:job.est job.ids in
    job.volumes_priced <- job.volumes_priced + 1;
    job.volumes <- Some v;
    v

let volumes_priced job = job.volumes_priced

type refusal =
  | Unsupported of Support.refusal
  | Unbounded of Ir.Operator.node

let price ~profile job backend =
  match Support.check backend job.shape with
  | Error r -> Error (Unsupported r)
  | Ok () -> (
    match Lazy.force job.unbounded with
    | Some n -> Error (Unbounded n)
    | None ->
      let rates = Profile.rates profile backend in
      (* ledger-fitted per-engine correction; 1.0 without calibration *)
      let factor = Profile.factor profile (Engines.Backend.name backend) in
      match Support.while_support backend, job.lone_while with
      | Support.Expand_per_iteration, Some n ->
        Ok (factor *. expanded_while_cost ~rates ~est:job.est n)
      | _ ->
        let _, total = Engines.Perf.makespan rates (volumes job) in
        Ok (factor *. total))

let job_cost ~profile ~est backend ids =
  match price ~profile (job ~est ids) backend with
  | Ok s -> Finite s
  | Error (Unsupported r) -> Infeasible (Support.reason backend r)
  | Error (Unbounded n) ->
    Infeasible
      (Printf.sprintf "no size bound for %s output (node %d) without history"
         (Ir.Operator.kind_name n.Ir.Operator.kind)
         n.Ir.Operator.id)

(* Plan-time pricing of a common-subplan cut (docs/serving.md): an
   attached or cached prefix is replaced by a synthetic INPUT, so the
   partitioner automatically sees zero compute and one HDFS read of
   [read_mb] for it. The [saved_mb] side aggregates the modeled
   volumes an attacher skips — the cone's deduped input pulls, its
   processing and its shuffle traffic. The serving layer materializes
   a prefix only when saved exceeds read, so sharing never inflates
   the modeled makespan. *)
let subplan_cut ~est id =
  let cone = Ir.Dag.cone (Estimator.graph est) id in
  let read_mb = Estimator.output_mb est id in
  let v = job_volumes ~est cone in
  ( read_mb,
    v.Engines.Perf.input_mb +. v.Engines.Perf.process_mb
    +. v.Engines.Perf.comm_mb )

let plan_cost ~profile ~est plan =
  List.fold_left
    (fun acc (backend, ids) ->
       match acc with
       | Infeasible _ -> acc
       | Finite total -> (
         match job_cost ~profile ~est backend ids with
         | Finite c -> Finite (total +. c)
         | Infeasible _ as inf -> inf))
    (Finite 0.) plan
