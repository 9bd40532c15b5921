open Relation

let log_src = Logs.Src.create "musketeer.optimizer" ~doc:"IR rewrites"

module Log = (val Logs.src_log log_src)

(* ---- generic single-node rewrite driver ---- *)

type action =
  | Keep
  | Skip   (** drop the node (its handle is never recorded) *)
  | Replace of
      (Ir.Builder.t -> (int -> Ir.Builder.handle) -> Ir.Builder.handle)

(* Rebuild [g], applying [decide] to every node in topological order.
   Returns None if some kept node references a skipped one. *)
let rebuild_with (g : Ir.Dag.t) ~decide =
  let b = Ir.Builder.create () in
  let handles : (int, Ir.Builder.handle) Hashtbl.t = Hashtbl.create 16 in
  let get id =
    match Hashtbl.find_opt handles id with
    | Some h -> h
    | None -> raise Exit
  in
  try
    List.iter
      (fun (n : Ir.Operator.node) ->
         match decide n with
         | Skip -> ()
         | Keep ->
           let h =
             Rebuild.copy_node b ~name:n.output n.kind
               (List.map get n.inputs)
           in
           Hashtbl.replace handles n.id h
         | Replace f -> Hashtbl.replace handles n.id (f b get))
      (Ir.Dag.topological_order g);
    let outputs = List.map get g.Ir.Operator.outputs in
    Some
      (if g.Ir.Operator.carried = [] then Ir.Builder.finish b ~outputs
       else
         (* a body's outputs are its carried pairs' new sides, in order *)
         Ir.Builder.finish_body b
           ~carried:(List.map2 (fun (old, _) h -> (old, h))
                       g.Ir.Operator.carried outputs))
  with Exit -> None

let sole_consumer g id =
  match Ir.Dag.consumers g id with
  | [ c ] -> Some c
  | _ -> None

let is_output g id = List.mem id g.Ir.Operator.outputs

(* ---- individual rewrites; each returns Some new_graph on success ---- *)

let columns_subset cols schema =
  List.for_all (fun c -> Schema.mem schema c) cols

(* SELECT over JOIN -> JOIN over SELECT (on the side providing all
   predicate columns). Fires only when the select is the join's sole
   consumer. *)
let select_through_join g schemas =
  List.find_map
    (fun (n : Ir.Operator.node) ->
       match n.kind with
       | Ir.Operator.Select { pred } -> (
         match n.inputs with
         | [ j_id ] -> (
           let j = Ir.Dag.node g j_id in
           match j.kind with
           | Ir.Operator.Join { left_key; right_key }
             when sole_consumer g j_id = Some n.id && not (is_output g j_id)
             -> (
               let l_id, r_id =
                 match j.inputs with
                 | [ l; r ] -> (l, r)
                 | _ -> assert false
               in
               let pred_cols = Expr.columns pred in
               let l_schema = Hashtbl.find schemas l_id
               and r_schema = Hashtbl.find schemas r_id in
               let side =
                 if columns_subset pred_cols l_schema then Some `Left
                 else if columns_subset pred_cols r_schema then Some `Right
                 else None
               in
               match side with
               | None -> None
               | Some side ->
                 let decide (m : Ir.Operator.node) =
                   if m.id = j_id then Skip
                   else if m.id = n.id then
                     Replace
                       (fun b get ->
                          let l = get l_id and r = get r_id in
                          match side with
                          | `Left ->
                            let s = Ir.Builder.select b ~pred l in
                            Ir.Builder.join b ~name:n.output ~left_key
                              ~right_key s r
                          | `Right ->
                            let s = Ir.Builder.select b ~pred r in
                            Ir.Builder.join b ~name:n.output ~left_key
                              ~right_key l s)
                   else Keep
                 in
                 rebuild_with g ~decide)
           | _ -> None)
         | _ -> None)
       | _ -> None)
    g.Ir.Operator.nodes

(* SELECT over MAP -> MAP over SELECT when the predicate does not read
   the mapped column. *)
let select_through_map g schemas =
  List.find_map
    (fun (n : Ir.Operator.node) ->
       match n.kind with
       | Ir.Operator.Select { pred } -> (
         match n.inputs with
         | [ m_id ] -> (
           let m = Ir.Dag.node g m_id in
           match m.kind with
           | Ir.Operator.Map { target; expr }
             when sole_consumer g m_id = Some n.id
                  && (not (is_output g m_id))
                  && (not (List.mem target (Expr.columns pred)))
                  && columns_subset (Expr.columns pred)
                       (Hashtbl.find schemas (List.hd m.inputs)) ->
             let src = List.hd m.inputs in
             let decide (x : Ir.Operator.node) =
               if x.id = m_id then Skip
               else if x.id = n.id then
                 Replace
                   (fun b get ->
                      let s = Ir.Builder.select b ~pred (get src) in
                      Ir.Builder.map b ~name:n.output ~target ~expr s)
               else Keep
             in
             rebuild_with g ~decide
           | _ -> None)
         | _ -> None)
       | _ -> None)
    g.Ir.Operator.nodes

(* SELECT over UNION -> UNION of SELECTs. *)
let select_through_union g _schemas =
  List.find_map
    (fun (n : Ir.Operator.node) ->
       match n.kind with
       | Ir.Operator.Select { pred } -> (
         match n.inputs with
         | [ u_id ] -> (
           let u = Ir.Dag.node g u_id in
           match u.kind with
           | Ir.Operator.Union
             when sole_consumer g u_id = Some n.id && not (is_output g u_id)
             ->
               let a_id, b_id =
                 match u.inputs with
                 | [ a; b ] -> (a, b)
                 | _ -> assert false
               in
               let decide (x : Ir.Operator.node) =
                 if x.id = u_id then Skip
                 else if x.id = n.id then
                   Replace
                     (fun b get ->
                        let sa = Ir.Builder.select b ~pred (get a_id) in
                        let sb = Ir.Builder.select b ~pred (get b_id) in
                        Ir.Builder.union b ~name:n.output sa sb)
                 else Keep
               in
               rebuild_with g ~decide
           | _ -> None)
         | _ -> None)
       | _ -> None)
    g.Ir.Operator.nodes

(* SELECT p2 over SELECT p1 -> SELECT (p1 AND p2). *)
let fuse_selects g _schemas =
  List.find_map
    (fun (n : Ir.Operator.node) ->
       match n.kind with
       | Ir.Operator.Select { pred = p2 } -> (
         match n.inputs with
         | [ s_id ] -> (
           let s = Ir.Dag.node g s_id in
           match s.kind with
           | Ir.Operator.Select { pred = p1 }
             when sole_consumer g s_id = Some n.id && not (is_output g s_id)
             ->
               let src = List.hd s.inputs in
               let decide (x : Ir.Operator.node) =
                 if x.id = s_id then Skip
                 else if x.id = n.id then
                   Replace
                     (fun b get ->
                        Ir.Builder.select b ~name:n.output
                          ~pred:Expr.(p1 && p2) (get src))
                 else Keep
               in
               rebuild_with g ~decide
           | _ -> None)
         | _ -> None)
       | _ -> None)
    g.Ir.Operator.nodes

(* SELECT over DISTINCT -> DISTINCT over SELECT: filters first, and
   keeps the (often expensive) deduplication working on fewer rows *)
let select_through_distinct g _schemas =
  List.find_map
    (fun (n : Ir.Operator.node) ->
       match n.kind with
       | Ir.Operator.Select { pred } -> (
         match n.inputs with
         | [ d_id ] -> (
           let d = Ir.Dag.node g d_id in
           match d.kind with
           | Ir.Operator.Distinct
             when sole_consumer g d_id = Some n.id && not (is_output g d_id)
             ->
               let src = List.hd d.inputs in
               let decide (x : Ir.Operator.node) =
                 if x.id = d_id then Skip
                 else if x.id = n.id then
                   Replace
                     (fun b get ->
                        let s = Ir.Builder.select b ~pred (get src) in
                        Ir.Builder.distinct b ~name:n.output s)
                 else Keep
               in
               rebuild_with g ~decide
           | _ -> None)
         | _ -> None)
       | _ -> None)
    g.Ir.Operator.nodes

(* SELECT over DIFFERENCE distributes into both branches (set
   semantics: sigma(A - B) = sigma(A) - sigma(B)) *)
let select_through_difference g _schemas =
  List.find_map
    (fun (n : Ir.Operator.node) ->
       match n.kind with
       | Ir.Operator.Select { pred } -> (
         match n.inputs with
         | [ d_id ] -> (
           let d = Ir.Dag.node g d_id in
           match d.kind with
           | Ir.Operator.Difference
             when sole_consumer g d_id = Some n.id && not (is_output g d_id)
             ->
               let a_id, b_id =
                 match d.inputs with
                 | [ a; b ] -> (a, b)
                 | _ -> assert false
               in
               let decide (x : Ir.Operator.node) =
                 if x.id = d_id then Skip
                 else if x.id = n.id then
                   Replace
                     (fun b get ->
                        let sa = Ir.Builder.select b ~pred (get a_id) in
                        let sb = Ir.Builder.select b ~pred (get b_id) in
                        Ir.Builder.difference b ~name:n.output sa sb)
                 else Keep
               in
               rebuild_with g ~decide
           | _ -> None)
         | _ -> None)
       | _ -> None)
    g.Ir.Operator.nodes

(* drop operators whose output nobody consumes *)
let eliminate_dead g _schemas =
  let dead =
    List.find_map
      (fun (n : Ir.Operator.node) ->
         match n.kind with
         | Ir.Operator.Input _ -> None
         | _ ->
           if Ir.Dag.consumers g n.id = [] && not (is_output g n.id) then
             Some n.id
           else None)
      g.Ir.Operator.nodes
  in
  match dead with
  | None -> None
  | Some id ->
    rebuild_with g ~decide:(fun n -> if n.id = id then Skip else Keep)

let rewrites ~catalog =
  [ "fuse-selects", fuse_selects;
    "select-through-join", select_through_join;
    "select-through-map", select_through_map;
    "select-through-union", select_through_union;
    "select-through-distinct", select_through_distinct;
    "select-through-difference", select_through_difference;
    "dead-elimination", eliminate_dead;
    ("prune-input-columns",
     fun g _schemas -> Column_pruning.prune_inputs ~catalog g) ]

(* [count] counts the rewrites fired, WHILE bodies included *)
let rec optimize_graph ~count ~catalog (g : Ir.Dag.t) =
  let schemas, applied =
    (* one span per fixpoint pass: the type check plus the first rewrite
       that fires (or none, ending the loop) *)
    Obs.Trace.with_span "optimize.pass" @@ fun () ->
    let schemas =
      Obs.Trace.with_span "ir.typecheck" (fun () ->
          Ir.Typing.infer ~catalog g)
    in
    let applied =
      List.find_map
        (fun (rule, rw) ->
           Option.map (fun g' -> (rule, g')) (rw g schemas))
        (rewrites ~catalog)
    in
    Obs.Trace.add_attr "applied"
      (Obs.Trace.String
         (match applied with Some (rule, _) -> rule | None -> "fixpoint"));
    (schemas, applied)
  in
  match applied with
  | Some (rule, g') ->
    incr count;
    Obs.Metrics.incr Obs.Metrics.default ("rewrite." ^ rule);
    Log.debug (fun m -> m "applied rewrite %s" rule);
    optimize_graph ~count ~catalog g'
  | None -> optimize_bodies ~count ~catalog ~schemas g

(* recurse into WHILE bodies, binding loop-input schemas *)
and optimize_bodies ~count ~catalog ~schemas (g : Ir.Dag.t) =
  let changed = ref false in
  let result =
    rebuild_with g ~decide:(fun (n : Ir.Operator.node) ->
        match n.kind with
        | Ir.Operator.While { condition; max_iterations; body } ->
          let bound = Hashtbl.create 8 in
          List.iter2
            (fun (bn : Ir.Operator.node) producer ->
               match bn.kind with
               | Ir.Operator.Input { relation } ->
                 Hashtbl.replace bound relation (Hashtbl.find schemas producer)
               | _ -> ())
            (Ir.Dag.sources body) n.inputs;
          let body_catalog r =
            match Hashtbl.find_opt bound r with
            | Some s -> s
            | None -> catalog r
          in
          let body' = optimize_graph ~count ~catalog:body_catalog body in
          if body' != body then changed := true;
          Replace
            (fun b get ->
               Ir.Builder.while_ b ~name:n.output ~condition ~max_iterations
                 ~body:body'
                 (List.map get n.inputs))
        | _ -> Keep)
  in
  match result with
  | Some g' when !changed -> g'
  | _ -> g

let optimize_counted ~catalog g =
  Obs.Trace.with_span "optimize" @@ fun () ->
  let count = ref 0 in
  let result =
    try optimize_graph ~count ~catalog g with
    | Ir.Typing.Type_error _ | Not_found ->
      (* workflows we cannot fully type (e.g. black boxes) run unoptimized *)
      g
  in
  Obs.Trace.add_attr "rewrites" (Obs.Trace.Int !count);
  (result, !count)

let optimize ~catalog g = fst (optimize_counted ~catalog g)
