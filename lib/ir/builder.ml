type handle = {
  node_id : int;
  out_name : string;
}

type t = {
  mutable next_id : int;
  mutable rev_nodes : Operator.node list;
  mutable minted : int list;  (** ids whose name [add] minted *)
}

let create () = { next_id = 0; rev_nodes = []; minted = [] }

let id h = h.node_id

let relation h = h.out_name

let add b ?name kind inputs =
  let node_id = b.next_id in
  b.next_id <- node_id + 1;
  let out_name =
    match name with
    | Some n -> n
    | None ->
      b.minted <- node_id :: b.minted;
      Printf.sprintf "tmp%d" node_id
  in
  b.rev_nodes <-
    { Operator.id = node_id; kind; inputs = List.map id inputs;
      output = out_name }
    :: b.rev_nodes;
  { node_id; out_name }

let input b relation = add b ~name:relation (Operator.Input { relation }) []

let select b ?name ~pred h = add b ?name (Operator.Select { pred }) [ h ]

let project b ?name ~columns h =
  add b ?name (Operator.Project { columns }) [ h ]

let map b ?name ~target ~expr h =
  add b ?name (Operator.Map { target; expr }) [ h ]

let join b ?name ~left_key ~right_key l r =
  add b ?name (Operator.Join { left_key; right_key }) [ l; r ]

let left_outer_join b ?name ~left_key ~right_key ~defaults l r =
  add b ?name (Operator.Left_outer_join { left_key; right_key; defaults })
    [ l; r ]

let semi_join b ?name ~left_key ~right_key l r =
  add b ?name (Operator.Semi_join { left_key; right_key }) [ l; r ]

let anti_join b ?name ~left_key ~right_key l r =
  add b ?name (Operator.Anti_join { left_key; right_key }) [ l; r ]

let cross b ?name l r = add b ?name Operator.Cross [ l; r ]

let union b ?name l r = add b ?name Operator.Union [ l; r ]

let intersect b ?name l r = add b ?name Operator.Intersect [ l; r ]

let difference b ?name l r = add b ?name Operator.Difference [ l; r ]

let distinct b ?name h = add b ?name Operator.Distinct [ h ]

let group_by b ?name ~keys ~aggs h =
  add b ?name (Operator.Group_by { keys; aggs }) [ h ]

let agg b ?name ~aggs h = add b ?name (Operator.Agg { aggs }) [ h ]

let sort b ?name ~by ~descending h =
  add b ?name (Operator.Sort { by; descending }) [ h ]

let top_k b ?name ~by ~descending ~k h =
  add b ?name (Operator.Top_k { by; descending; k }) [ h ]

let udf b ?name u inputs = add b ?name (Operator.Udf u) inputs

let while_ b ?name ~condition ~max_iterations ~body inputs =
  let name =
    match name, body.Operator.carried with
    | Some n, _ -> Some n
    | None, (old, _) :: _ -> Some old
    | None, [] -> None
  in
  add b ?name (Operator.While { condition; max_iterations; body }) inputs

let black_box b ?name ~backend_hint ~description inputs =
  add b ?name (Operator.Black_box { backend_hint; description }) inputs

(* An INPUT keeps its relation's name. A given name stays with its last
   non-INPUT holder (a frontend's final binding), unless that holder
   takes an INPUT's name: at top level it may when it updates the INPUT
   in place ([in_place]), while a WHILE body gives every definition its
   own name and lists the carried pairs instead. A minted [tmp<id>]
   yields to any given name. Every other holder becomes [<name>_<k>],
   the smallest k >= 1 no given and no earlier new name uses; minted
   names never contain '_', so a build without a collision keeps every
   name (and its hash). *)
let unique_names b ~in_place ~outputs =
  let nodes = List.rev b.rev_nodes in
  (* most builds are rewrites that mint nothing *)
  let minted =
    if b.minted = [] then fun _ -> false
    else
      let t = Hashtbl.create 16 in
      List.iter (fun id -> Hashtbl.replace t id ()) b.minted;
      Hashtbl.mem t
  in
  let last = Hashtbl.create 16 and scanned = Hashtbl.create 16 in
  List.iter
    (fun (n : Operator.node) ->
       match n.kind with
       | Operator.Input _ -> Hashtbl.replace scanned n.output ()
       | _ when minted n.id -> ()
       | _ -> Hashtbl.replace last n.output n.id)
    nodes;
  let taken name = Hashtbl.mem last name || Hashtbl.mem scanned name in
  let keeps (n : Operator.node) =
    match n.kind with
    | Operator.Input _ -> true
    | _ when minted n.id -> not (taken n.output)
    | _ ->
      Hashtbl.find last n.output = n.id
      && ((not (Hashtbl.mem scanned n.output))
          || in_place
             && Dag.replaces_input { Operator.nodes; outputs; carried = [] } n)
  in
  if List.for_all keeps nodes then nodes
  else
    let rec fresh name k =
      let name' = Printf.sprintf "%s_%d" name k in
      if taken name' then fresh name (k + 1) else name'
    in
    List.map
      (fun (n : Operator.node) ->
         if keeps n then n
         else begin
           let output = fresh n.output 1 in
           Hashtbl.replace last output n.id;
           { n with output }
         end)
      nodes

let graph b ~in_place ~outputs ~carried =
  Obs.Trace.with_span "ir.build" @@ fun () ->
  let outputs = List.map id outputs in
  let nodes = unique_names b ~in_place ~outputs in
  let name h =
    (List.find (fun (n : Operator.node) -> n.id = id h) nodes).output
  in
  let g =
    { Operator.nodes; outputs;
      carried = List.map (fun (old, next) -> (old, name next)) carried }
  in
  Dag.validate g;
  Obs.Trace.add_attr "nodes" (Obs.Trace.Int (List.length g.Operator.nodes));
  Obs.Trace.add_attr "outputs" (Obs.Trace.Int (List.length g.Operator.outputs));
  g

let finish b ~outputs = graph b ~in_place:true ~outputs ~carried:[]

let finish_body b ~carried =
  graph b ~in_place:false ~outputs:(List.map snd carried) ~carried
