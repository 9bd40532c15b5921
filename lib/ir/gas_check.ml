(* classify which loop inputs each node's value derives from *)
type taint = {
  carried : bool;
  read_only : bool;
}

let taints (body : Operator.graph) =
  let table : (int, taint) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (n : Operator.node) ->
       let own =
         match n.kind with
         | Operator.Input { relation } ->
           if List.mem_assoc relation body.carried then
             { carried = true; read_only = false }
           else { carried = false; read_only = true }
         | _ -> { carried = false; read_only = false }
       in
       let merged =
         List.fold_left
           (fun acc i ->
              let t = Hashtbl.find table i in
              { carried = acc.carried || t.carried;
                read_only = acc.read_only || t.read_only })
           own n.inputs
       in
       Hashtbl.replace table n.id merged)
    body.nodes;
  table

let reachable (g : Operator.graph) ~src ~dst =
  let visited = Hashtbl.create 8 in
  let rec visit id =
    id = dst
    || (not (Hashtbl.mem visited id))
       && begin
         Hashtbl.add visited id ();
         List.exists visit (Dag.consumers g id)
       end
  in
  visit src

let scatter_join (body : Operator.graph) =
  let table = taints body in
  List.find_map
    (fun (n : Operator.node) ->
       match n.kind, n.inputs with
       | Operator.Join _, [ l; r ] ->
         let tl = Hashtbl.find table l and tr = Hashtbl.find table r in
         let pure_carried t = t.carried && not t.read_only
         and pure_read_only t = t.read_only && not t.carried in
         if
           (pure_carried tl && pure_read_only tr)
           || (pure_read_only tl && pure_carried tr)
         then Some n.id
         else None
       | _ -> None)
    body.nodes

let body_is_vertex_centric (body : Operator.graph) =
  let has_cross =
    List.exists
      (fun (n : Operator.node) ->
         match n.kind with Operator.Cross -> true | _ -> false)
      body.nodes
  in
  (not has_cross)
  &&
  match scatter_join body with
  | None -> false
  | Some join_id ->
    List.exists
      (fun (n : Operator.node) ->
         match n.kind with
         | Operator.Group_by _ -> reachable body ~src:join_id ~dst:n.id
         | _ -> false)
      body.nodes

let graph_is_gas (g : Operator.graph) =
  let non_input =
    List.filter
      (fun (n : Operator.node) ->
         match n.kind with Operator.Input _ -> false | _ -> true)
      g.nodes
  in
  match non_input with
  | [ { Operator.kind = Operator.While { body; _ }; _ } ] ->
    body_is_vertex_centric body
  | _ -> false
