type entry = {
  out_mb : float;
  in_mb : float;
  historical : bool;
}

type t = {
  entries : (int, entry) Hashtbl.t;
  fusion : Ir.Fusion.plan;
}

let conservative_factor = 3.

let default_unknown_input_mb = 64.

let iterations (kind : Ir.Operator.kind) =
  match kind with
  | Ir.Operator.While { condition = Ir.Operator.Fixed_iterations n; _ } -> n
  | Ir.Operator.While { max_iterations; _ } -> min 10 max_iterations
  | _ -> 1

let rec build ?protect ~input_mb ~history ~workflow (g : Ir.Dag.t) =
  let entries = Hashtbl.create 16 in
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
           (* the loop's result is its body's first output; estimate one
              body pass with the loop inputs bound *)
           estimate_while ~history ~workflow ~body ~ins
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
  { entries; fusion = Ir.Fusion.plan ?protect g }

and estimate_while ~history:_ ~workflow ~body ~ins =
  (* bind body inputs positionally, then fold the body estimates;
     history is keyed by top-level node ids, so bodies are estimated
     a-priori *)
  let body_inputs = Ir.Dag.sources body in
  let bound = Hashtbl.create 8 in
  (try
     List.iter2
       (fun (n : Ir.Operator.node) mb ->
          match n.kind with
          | Ir.Operator.Input { relation } -> Hashtbl.replace bound relation mb
          | _ -> ())
       body_inputs ins
   with Invalid_argument _ -> ());
  let inner =
    build
      ~input_mb:(fun r -> Hashtbl.find_opt bound r)
      ~history:(History.create ()) ~workflow body
  in
  match body.Ir.Operator.outputs with
  | id :: _ -> (Hashtbl.find inner.entries id).out_mb
  | [] -> 0.

let fusion t = t.fusion

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

let size_rel_error t id ~observed_mb =
  let predicted = output_mb t id in
  Float.abs (observed_mb -. predicted) /. Float.max (Float.abs predicted) 1e-6
