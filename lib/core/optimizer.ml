open Relation

let log_src = Logs.Src.create "musketeer.optimizer" ~doc:"IR rewrites"

module Log = (val Logs.src_log log_src)

let is_output g id = List.mem id g.Ir.Operator.outputs

let columns_subset cols schema =
  List.for_all (fun c -> Schema.mem schema c) cols

(* The push-down table: the rule that moves SELECT [pred] (named
   [name]) below its input [x], and the SELECT's replacement, built
   over [x]'s inputs; None when [x]'s kind does not commute. *)
let push_below schemas ~name ~pred (x : Ir.Operator.node) =
  let cols = Expr.columns pred in
  let fits id = columns_subset cols (Hashtbl.find schemas id) in
  let select b get id = Ir.Builder.select b ~pred (get id) in
  match x.kind, x.inputs with
  | Ir.Operator.Select { pred = inner }, [ src ] ->
    (* SELECT p over SELECT p1 -> SELECT (p1 AND p) *)
    Some
      ("fuse-selects",
       fun b get ->
         Ir.Builder.select b ~name ~pred:Expr.(inner && pred) (get src))
  | Ir.Operator.Join { left_key; right_key }, [ l; r ] ->
    (* to the side that provides every predicate column *)
    let rule = "select-through-join" in
    if fits l then
      Some
        (rule,
         fun b get ->
           let s = select b get l in
           Ir.Builder.join b ~name ~left_key ~right_key s (get r))
    else if fits r then
      Some
        (rule,
         fun b get ->
           let s = select b get r in
           Ir.Builder.join b ~name ~left_key ~right_key (get l) s)
    else None
  | Ir.Operator.Map { target; expr }, [ src ]
    when (not (List.mem target cols)) && fits src ->
    Some
      ("select-through-map",
       fun b get ->
         Ir.Builder.map b ~name ~target ~expr (select b get src))
  | Ir.Operator.Distinct, [ src ] ->
    (* the (often expensive) deduplication works on fewer rows *)
    Some
      ("select-through-distinct",
       fun b get -> Ir.Builder.distinct b ~name (select b get src))
  | Ir.Operator.Union, [ l; r ] ->
    Some
      ("select-through-union",
       fun b get ->
         let sl = select b get l in
         Ir.Builder.union b ~name sl (select b get r))
  | Ir.Operator.Difference, [ l; r ] ->
    (* set semantics: sigma(A - B) = sigma(A) - sigma(B) *)
    Some
      ("select-through-difference",
       fun b get ->
         let sl = select b get l in
         Ir.Builder.difference b ~name sl (select b get r))
  | _ -> None

(* a SELECT whose input only it reads, and which is no output, moves
   below that input *)
let push_select g schemas =
  List.find_map
    (fun (n : Ir.Operator.node) ->
       match n.kind, n.inputs with
       | Ir.Operator.Select { pred }, [ x ]
         when Ir.Dag.consumers g x = [ n.id ] && not (is_output g x) ->
         Option.map
           (fun (rule, replace) ->
              ( rule,
                Rebuild.rewrite g ~decide:(fun (m : Ir.Operator.node) ->
                    if m.id = x then Rebuild.Skip
                    else if m.id = n.id then Rebuild.Replace replace
                    else Rebuild.Keep) ))
           (push_below schemas ~name:n.output ~pred (Ir.Dag.node g x))
       | _ -> None)
    g.Ir.Operator.nodes

(* drop operators whose output nobody consumes *)
let eliminate_dead g _schemas =
  List.find_map
    (fun (n : Ir.Operator.node) ->
       match n.kind with
       | Ir.Operator.Input _ -> None
       | _ when Ir.Dag.consumers g n.id = [] && not (is_output g n.id) ->
         Some
           ( "dead-elimination",
             Rebuild.rewrite g ~decide:(fun m ->
                 if m.id = n.id then Rebuild.Skip else Rebuild.Keep) )
       | _ -> None)
    g.Ir.Operator.nodes

let prune_input_columns g schemas =
  Option.map
    (fun g' -> ("prune-input-columns", g'))
    (Column_pruning.prune_inputs ~schemas g)

let rewrites = [ push_select; eliminate_dead; prune_input_columns ]

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
    let applied = List.find_map (fun rw -> rw g schemas) rewrites in
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
  let bodies =
    List.filter_map
      (fun (n : Ir.Operator.node) ->
         match n.kind with
         | Ir.Operator.While ({ body; _ } as loop) ->
           let bound = Hashtbl.create 8 in
           List.iter2
             (fun (bn : Ir.Operator.node) producer ->
                match bn.kind with
                | Ir.Operator.Input { relation } ->
                  Hashtbl.replace bound relation
                    (Hashtbl.find schemas producer)
                | _ -> ())
             (Ir.Dag.sources body) n.inputs;
           let body_catalog r =
             match Hashtbl.find_opt bound r with
             | Some s -> s
             | None -> catalog r
           in
           let body' = optimize_graph ~count ~catalog:body_catalog body in
           if body' == body then None
           else Some (n.id, Ir.Operator.While { loop with body = body' })
         | _ -> None)
      g.Ir.Operator.nodes
  in
  (* rebuilt only when some body changed *)
  if bodies = [] then g
  else
    Rebuild.rewrite g ~decide:(fun (n : Ir.Operator.node) ->
        match List.assoc_opt n.id bodies with
        | Some kind ->
          Rebuild.Replace
            (fun b get ->
               Rebuild.copy_node b ~name:n.output kind (List.map get n.inputs))
        | None -> Rebuild.Keep)

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
