type entry = {
  out_mb : float;
  in_mb : float;
  historical : bool;
}

(* The estimates plus the pricing context: per-graph facts every
   candidate job {!Cost} prices reads. They are indexed once per plan
   here, not scanned again for each of the thousands of sets a search
   prices. The WHILE memos hold per-node facts of this graph only,
   never a per-set result. *)
type t = {
  entries : (int, entry) Hashtbl.t;
  fusion : Ir.Fusion.plan;
  graph : Ir.Dag.t;
  nodes : (int, Ir.Operator.node) Hashtbl.t;
  consumers : (int, int list) Hashtbl.t;
  outputs : (int, unit) Hashtbl.t;
  bodies : (int, t) Hashtbl.t;  (* each WHILE node's body estimator *)
  body_passes : (int, float * float * int) Hashtbl.t;
  vertex_centric : (int, bool) Hashtbl.t;
}

let conservative_factor = 3.

let default_unknown_input_mb = 64.

let iterations (kind : Ir.Operator.kind) =
  match kind with
  | Ir.Operator.While { condition = Ir.Operator.Fixed_iterations n; _ } -> n
  | Ir.Operator.While { max_iterations; _ } -> min 10 max_iterations
  | _ -> 1

(* the relation sizes a WHILE body's INPUT nodes take: the loop's
   inputs, bound positionally *)
let bind_body_inputs body ins =
  let bound = Hashtbl.create 8 in
  List.iter2
    (fun (n : Ir.Operator.node) mb ->
       match n.kind with
       | Ir.Operator.Input { relation } -> Hashtbl.replace bound relation mb
       | _ -> ())
    (Ir.Dag.sources body) ins;
  Hashtbl.find_opt bound

(* each consumer once, in node order, as {!Ir.Dag.consumers} lists them *)
let index_consumers (g : Ir.Dag.t) =
  let consumers = Hashtbl.create 16 in
  List.iter
    (fun (n : Ir.Operator.node) ->
       List.iter
         (fun i ->
            let cur = Option.value (Hashtbl.find_opt consumers i) ~default:[] in
            match cur with
            | c :: _ when c = n.id -> ()
            | _ -> Hashtbl.replace consumers i (n.id :: cur))
         n.inputs)
    g.Ir.Operator.nodes;
  Hashtbl.filter_map_inplace (fun _ cs -> Some (List.rev cs)) consumers;
  consumers

let rec build ~input_mb ~history ~workflow (g : Ir.Dag.t) =
  let entries = Hashtbl.create 16 and bodies = Hashtbl.create 2 in
  let out_of id = (Hashtbl.find entries id).out_mb in
  List.iter
    (fun (n : Ir.Operator.node) ->
       let ins = List.map out_of n.inputs in
       let in_total = List.fold_left ( +. ) 0. ins in
       let a_priori =
         match n.kind with
         | Ir.Operator.Input { relation } -> (
           match input_mb relation with
           | Some mb -> mb
           | None -> default_unknown_input_mb)
         | Ir.Operator.While { body; _ } ->
           (* the loop's result is its body's first output: estimate one
              body pass with the loop inputs bound, a-priori (history is
              keyed by top-level node ids) *)
           let inner =
             build ~input_mb:(bind_body_inputs body ins)
               ~history:(History.create ()) ~workflow body
           in
           Hashtbl.replace bodies n.id inner;
           (Hashtbl.find inner.entries (List.hd body.Ir.Operator.outputs))
             .out_mb
         | kind ->
           let est = Ir.Sizing.of_kind kind ~inputs:ins in
           (match est.Ir.Sizing.upper with
            | Some _ -> est.Ir.Sizing.expected
            | None ->
              (* unbounded operator: be conservative on first runs *)
              est.Ir.Sizing.expected *. conservative_factor)
       in
       let out_mb, historical =
         match History.lookup history ~workflow ~node_id:n.id with
         | Some mb -> (mb, true)
         | None -> (a_priori, false)
       in
       Hashtbl.replace entries n.id { out_mb; in_mb = in_total;
                                      historical })
    g.Ir.Operator.nodes;
  let nodes = Hashtbl.create 16 and outputs = Hashtbl.create 4 in
  List.iter
    (fun (n : Ir.Operator.node) -> Hashtbl.replace nodes n.id n)
    g.Ir.Operator.nodes;
  List.iter (fun id -> Hashtbl.replace outputs id ()) g.Ir.Operator.outputs;
  { entries; fusion = Ir.Fusion.plan g; graph = g; nodes;
    consumers = index_consumers g; outputs; bodies;
    body_passes = Hashtbl.create 2; vertex_centric = Hashtbl.create 2 }

let fusion t = t.fusion

let graph t = t.graph

let node t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n -> n
  | None -> Ir.Dag.node t.graph id

let consumers t id =
  Option.value (Hashtbl.find_opt t.consumers id) ~default:[]

let is_output t id = Hashtbl.mem t.outputs id

let output_mb t id =
  match Hashtbl.find_opt t.entries id with
  | Some e -> e.out_mb
  | None -> 0.

let input_mb t id =
  match Hashtbl.find_opt t.entries id with
  | Some e -> e.in_mb
  | None -> 0.

let from_history t id =
  match Hashtbl.find_opt t.entries id with
  | Some e -> e.historical
  | None -> false

let memo table id f =
  match Hashtbl.find_opt table id with
  | Some v -> v
  | None ->
    let v = f () in
    Hashtbl.add table id v;
    v

let charges t ~within = Engines.Perf.charges t.fusion t.graph ~within

let vertex_centric t id =
  memo t.vertex_centric id @@ fun () ->
  match (node t id).Ir.Operator.kind with
  | Ir.Operator.While { body; _ } -> Ir.Gas_check.body_is_vertex_centric body
  | _ -> false

(* process/comm volumes of one WHILE body pass, with the loop inputs
   bound to the estimated sizes of the WHILE node's producers *)
let rec body_pass t id =
  memo t.body_passes id @@ fun () ->
  let n = node t id in
  match n.Ir.Operator.kind with
  | Ir.Operator.While { body; _ } ->
    let inner = Hashtbl.find t.bodies id in
    let charges = charges inner ~within:(fun _ -> true) in
    List.fold_left
      (fun (process, comm, shuffles) (bn : Ir.Operator.node) ->
         match bn.kind with
         | Ir.Operator.Input _ -> (process, comm, shuffles)
         | Ir.Operator.While _ as k ->
           let p, c, s = body_pass inner bn.id in
           let iters = float_of_int (iterations k) in
           (process +. (iters *. p), comm +. (iters *. c), shuffles + s)
         | kind ->
           let in_mb = input_mb inner bn.id in
           let process =
             process +. Engines.Perf.process_mb charges bn.id kind ~in_mb
           in
           if Ir.Operator.needs_shuffle kind then
             (process, comm +. in_mb, shuffles + 1)
           else (process, comm, shuffles))
      (0., 0., 0) body.Ir.Operator.nodes
  | _ -> (0., 0., 0)

let size_rel_error t id ~observed_mb =
  let predicted = output_mb t id in
  Float.abs (observed_mb -. predicted) /. Float.max (Float.abs predicted) 1e-6
