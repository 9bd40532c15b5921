exception Type_error of string

let type_error fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

open Relation

let join_schema ls rs ~left_key ~right_key =
  if not (Schema.mem ls left_key) then
    type_error "JOIN: left key %S not in %s" left_key (Schema.to_string ls);
  if not (Schema.mem rs right_key) then
    type_error "JOIN: right key %S not in %s" right_key (Schema.to_string rs);
  let lt = Schema.column_type ls left_key
  and rt = Schema.column_type rs right_key in
  if lt <> rt then
    type_error "JOIN: key types differ (%s vs %s)" (Value.ty_to_string lt)
      (Value.ty_to_string rt);
  let keep =
    List.filter
      (fun (c : Schema.column) -> c.name <> right_key)
      (Schema.columns rs)
  in
  if keep = [] then ls else Schema.concat ls (Schema.make keep)

let group_schema schema ~keys ~aggs =
  let key_cols =
    List.map
      (fun k ->
         if not (Schema.mem schema k) then
           type_error "GROUP BY: unknown key %S in %s" k
             (Schema.to_string schema);
         { Schema.name = k; ty = Schema.column_type schema k })
      keys
  in
  let agg_cols =
    List.map
      (fun (a : Aggregate.t) ->
         let input_ty =
           match Aggregate.input_column a.fn with
           | None -> None
           | Some c ->
             if not (Schema.mem schema c) then
               type_error "aggregate over unknown column %S" c;
             Some (Schema.column_type schema c)
         in
         try { Schema.name = a.as_name;
               ty = Aggregate.result_type a.fn ~input:input_ty }
         with Invalid_argument msg -> type_error "%s" msg)
      aggs
  in
  try Schema.make (key_cols @ agg_cols)
  with Invalid_argument msg -> type_error "%s" msg

let rec infer ~catalog (g : Dag.t) =
  let schemas : (int, Schema.t) Hashtbl.t = Hashtbl.create 16 in
  let schema_of id =
    match Hashtbl.find_opt schemas id with
    | Some s -> s
    | None -> type_error "internal: schema of node %d not yet inferred" id
  in
  List.iter
    (fun (n : Operator.node) ->
       let input_schemas = List.map schema_of n.inputs in
       let out =
         match n.kind, input_schemas with
         | Operator.Input { relation }, [] -> (
           try catalog relation
           with Not_found -> type_error "unknown input relation %S" relation)
         | Operator.Select { pred }, [ s ] ->
           (try
              match Expr.infer s pred with
              | Value.Tbool -> s
              | ty ->
                type_error "SELECT predicate has type %s"
                  (Value.ty_to_string ty)
            with Expr.Type_error msg -> type_error "SELECT: %s" msg)
         | Operator.Project { columns }, [ s ] ->
           (try Schema.restrict s columns
            with Not_found ->
              type_error "PROJECT: unknown column among [%s] in %s"
                (String.concat ", " columns)
                (Schema.to_string s))
         | Operator.Map { target; expr }, [ s ] ->
           (try Schema.with_column s { Schema.name = target;
                                       ty = Expr.infer s expr }
            with Expr.Type_error msg -> type_error "MAP: %s" msg)
         | Operator.Join { left_key; right_key }, [ ls; rs ] ->
           join_schema ls rs ~left_key ~right_key
         | Operator.Left_outer_join { left_key; right_key; defaults },
           [ ls; rs ] ->
           let out = join_schema ls rs ~left_key ~right_key in
           let keep =
             List.filter
               (fun (c : Schema.column) -> c.name <> right_key)
               (Schema.columns rs)
           in
           if List.length defaults <> List.length keep then
             type_error
               "LEFT OUTER JOIN: %d defaults for %d right columns"
               (List.length defaults) (List.length keep);
           List.iter2
             (fun v (c : Schema.column) ->
                if Value.type_of v <> c.ty then
                  type_error
                    "LEFT OUTER JOIN: default for %s has type %s, \
                     expected %s"
                    c.name
                    (Value.ty_to_string (Value.type_of v))
                    (Value.ty_to_string c.ty))
             defaults keep;
           out
         | (Operator.Semi_join { left_key; right_key }
           | Operator.Anti_join { left_key; right_key }), [ ls; rs ] ->
           (* output schema is the left side; keys must exist and agree *)
           ignore (join_schema ls rs ~left_key ~right_key);
           ls
         | Operator.Cross, [ ls; rs ] -> Schema.concat ls rs
         | (Operator.Union | Operator.Intersect | Operator.Difference),
           [ ls; rs ] ->
           if not (Schema.equal ls rs) then
             type_error "%s: schemas differ: %s vs %s"
               (Operator.kind_name n.kind) (Schema.to_string ls)
               (Schema.to_string rs);
           ls
         | Operator.Distinct, [ s ] -> s
         | Operator.Group_by { keys; aggs }, [ s ] ->
           group_schema s ~keys ~aggs
         | Operator.Agg { aggs }, [ s ] -> group_schema s ~keys:[] ~aggs
         | (Operator.Sort { by; _ } | Operator.Top_k { by; _ }), [ s ] ->
           if not (Schema.mem s by) then
             type_error "%s: unknown column %S" (Operator.kind_name n.kind) by;
           s
         | Operator.Udf u, ss ->
           if List.length ss <> u.arity then
             type_error "UDF %s expects %d inputs, got %d" u.udf_name u.arity
               (List.length ss);
           u.out_schema ss
         | Operator.While { body; _ }, ss -> infer_while ~catalog body ss
         | Operator.Black_box { description; _ }, _ ->
           type_error "cannot type black-box operator (%s)" description
         | ( Operator.Select _ | Operator.Project _ | Operator.Map _
           | Operator.Join _ | Operator.Left_outer_join _
           | Operator.Semi_join _ | Operator.Anti_join _ | Operator.Cross
           | Operator.Union | Operator.Intersect | Operator.Difference
           | Operator.Distinct | Operator.Group_by _ | Operator.Agg _
           | Operator.Sort _ | Operator.Top_k _ | Operator.Input _ ), _ ->
           type_error "node %d (%s): wrong number of inputs" n.id
             (Operator.kind_name n.kind)
       in
       Hashtbl.replace schemas n.id out)
    g.nodes;
  schemas

and infer_while ~catalog body input_schemas =
  (* Bind the WHILE node's inputs positionally to the body's INPUT nodes
     (in body order); then type the body and check loop stability. *)
  let body_inputs = Dag.sources body in
  let bound = Hashtbl.create 8 in
  List.iter2
    (fun (n : Operator.node) s ->
       match n.kind with
       | Operator.Input { relation } -> Hashtbl.replace bound relation s
       | _ -> assert false)
    body_inputs input_schemas;
  let body_catalog r =
    match Hashtbl.find_opt bound r with
    | Some s -> s
    | None -> catalog r
  in
  let body_schemas = infer ~catalog:body_catalog body in
  (* loop stability: a carried pair's two relations share a schema *)
  List.iter
    (fun (old, next) ->
       let produced =
         List.find_map
           (fun id ->
              if (Dag.node body id).Operator.output = next then
                Hashtbl.find_opt body_schemas id
              else None)
           body.outputs
       in
       match produced, Hashtbl.find_opt bound old with
       | Some p, Some c when not (Schema.equal p c) ->
         type_error
           "WHILE: loop-carried relation %S changes schema across \
            iterations (%s -> %s)"
           old (Schema.to_string c) (Schema.to_string p)
       | _ -> ())
    body.carried;
  Hashtbl.find body_schemas (List.hd body.outputs)
