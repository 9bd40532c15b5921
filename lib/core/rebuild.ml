let copy_node b ~name kind inputs =
  match kind, inputs with
  | Ir.Operator.Input { relation }, [] -> Ir.Builder.input b relation
  | Ir.Operator.Select { pred }, [ h ] -> Ir.Builder.select b ~name ~pred h
  | Ir.Operator.Project { columns }, [ h ] ->
    Ir.Builder.project b ~name ~columns h
  | Ir.Operator.Map { target; expr }, [ h ] ->
    Ir.Builder.map b ~name ~target ~expr h
  | Ir.Operator.Join { left_key; right_key }, [ l; r ] ->
    Ir.Builder.join b ~name ~left_key ~right_key l r
  | Ir.Operator.Left_outer_join { left_key; right_key; defaults }, [ l; r ] ->
    Ir.Builder.left_outer_join b ~name ~left_key ~right_key ~defaults l r
  | Ir.Operator.Semi_join { left_key; right_key }, [ l; r ] ->
    Ir.Builder.semi_join b ~name ~left_key ~right_key l r
  | Ir.Operator.Anti_join { left_key; right_key }, [ l; r ] ->
    Ir.Builder.anti_join b ~name ~left_key ~right_key l r
  | Ir.Operator.Cross, [ l; r ] -> Ir.Builder.cross b ~name l r
  | Ir.Operator.Union, [ l; r ] -> Ir.Builder.union b ~name l r
  | Ir.Operator.Intersect, [ l; r ] -> Ir.Builder.intersect b ~name l r
  | Ir.Operator.Difference, [ l; r ] -> Ir.Builder.difference b ~name l r
  | Ir.Operator.Distinct, [ h ] -> Ir.Builder.distinct b ~name h
  | Ir.Operator.Group_by { keys; aggs }, [ h ] ->
    Ir.Builder.group_by b ~name ~keys ~aggs h
  | Ir.Operator.Agg { aggs }, [ h ] -> Ir.Builder.agg b ~name ~aggs h
  | Ir.Operator.Sort { by; descending }, [ h ] ->
    Ir.Builder.sort b ~name ~by ~descending h
  | Ir.Operator.Top_k { by; descending; k }, [ h ] ->
    Ir.Builder.top_k b ~name ~by ~descending ~k h
  | Ir.Operator.Udf u, hs -> Ir.Builder.udf b ~name u hs
  | Ir.Operator.While { condition; max_iterations; body }, hs ->
    Ir.Builder.while_ b ~name ~condition ~max_iterations ~body hs
  | Ir.Operator.Black_box { backend_hint; description }, hs ->
    Ir.Builder.black_box b ~name ~backend_hint ~description hs
  | kind, inputs ->
    invalid_arg
      (Printf.sprintf "Rebuild.copy_node: %s with %d inputs"
         (Ir.Operator.kind_name kind)
         (List.length inputs))

type action =
  | Keep
  | Skip
  | Replace of
      (Ir.Builder.t -> (int -> Ir.Builder.handle) -> Ir.Builder.handle)

(* [nodes] is already a topological order (Ir.Dag's invariant) *)
let rewrite (g : Ir.Dag.t) ~decide =
  let b = Ir.Builder.create () in
  let handles : (int, Ir.Builder.handle) Hashtbl.t = Hashtbl.create 16 in
  let get id =
    match Hashtbl.find_opt handles id with
    | Some h -> h
    | None ->
      invalid_arg (Printf.sprintf "Rebuild.rewrite: node %d was dropped" id)
  in
  List.iter
    (fun (n : Ir.Operator.node) ->
       match decide n with
       | Skip -> ()
       | Keep ->
         Hashtbl.replace handles n.id
           (copy_node b ~name:n.output n.kind (List.map get n.inputs))
       | Replace f -> Hashtbl.replace handles n.id (f b get))
    g.Ir.Operator.nodes;
  let outputs = List.map get g.Ir.Operator.outputs in
  if g.Ir.Operator.carried = [] then Ir.Builder.finish b ~outputs
  else
    (* a body's outputs are its carried pairs' new sides, in order *)
    Ir.Builder.finish_body b
      ~carried:
        (List.map2 (fun (old, _) h -> (old, h)) g.Ir.Operator.carried outputs)
