type chain = {
  source : int;
  members : int list;
  join_head : bool;
}

type role =
  | Solo
  | Head of chain
  | Interior of chain
  | Tail of chain

type plan = {
  plan_chains : chain list;
  roles : (int, role) Hashtbl.t;
}

let chains p = p.plan_chains

let role p id =
  match Hashtbl.find_opt p.roles id with
  | Some r -> r
  | None -> Solo

let row_local c = if c.join_head then List.tl c.members else c.members

let fusable = function
  | Operator.Select _ | Operator.Project _ | Operator.Map _ -> true
  | _ -> false

let plan ?(protect = []) (g : Operator.graph) =
  let protected : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter (fun r -> Hashtbl.replace protected r ()) protect;
  List.iter (fun r -> Hashtbl.replace protected r ()) g.loop_carried;
  let is_output : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun id ->
       Hashtbl.replace is_output id ();
       (* the WHILE driver (and output collection) may look this
          relation up by name; an interior node with the same name
          would silently change which binding wins *)
       Hashtbl.replace protected (Dag.node g id).Operator.output ())
    g.outputs;
  (* every node's consumers, in one pass: the cost model plans each
     candidate job, and [Dag.consumers] would scan the graph per node *)
  let consumers : (int, Operator.node list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (n : Operator.node) ->
       List.iter
         (fun i ->
            let cs = Option.value (Hashtbl.find_opt consumers i) ~default:[] in
            if not (List.memq n cs) then Hashtbl.replace consumers i (n :: cs))
         n.inputs)
    g.nodes;
  let taken : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  (* the node that may follow [t] in a chain: [t]'s single consumer,
     when nobody else — job output collection or a by-name lookup —
     can see [t]'s table *)
  let next (t : Operator.node) =
    if Hashtbl.mem is_output t.id || Hashtbl.mem protected t.output then None
    else
      match Hashtbl.find_opt consumers t.id with
      | Some [ c ] when not (Hashtbl.mem taken c.id) -> Some c
      | _ -> None
  in
  (* grow forward while the consumer is fusable *)
  let rec grow acc (t : Operator.node) =
    match next t with
    | Some cn when fusable cn.kind -> grow (cn :: acc) cn
    | _ -> acc
  in
  let found = ref [] in
  List.iter
    (fun (n : Operator.node) ->
       if not (Hashtbl.mem taken n.id) then begin
         let members =
           match n.kind with
           | Operator.Join _ -> (
             (* a JOIN heads a chain whose first member is its SELECT *)
             match next n with
             | Some ({ kind = Operator.Select _; _ } as s) ->
               n :: List.rev (grow [ s ] s)
             | _ -> [])
           | kind when fusable kind -> List.rev (grow [ n ] n)
           | _ -> []
         in
         (* a 1-node "chain" is just the unfused operator; leave the
            node unmarked so it can still head a later attempt *)
         if List.length members >= 2 then begin
           List.iter
             (fun (m : Operator.node) -> Hashtbl.replace taken m.id ())
             members;
           found :=
             { source = List.hd n.inputs;
               members = List.map (fun (m : Operator.node) -> m.id) members;
               join_head = not (fusable n.kind) }
             :: !found
         end
       end)
    g.nodes;
  let plan_chains = List.rev !found in
  let roles = Hashtbl.create 16 in
  List.iter
    (fun c ->
       let rec mark = function
         | [] -> ()
         | [ last ] -> Hashtbl.replace roles last (Tail c)
         | id :: rest ->
           Hashtbl.replace roles id (Interior c);
           mark rest
       in
       mark c.members;
       if c.join_head then Hashtbl.replace roles (List.hd c.members) (Head c))
    plan_chains;
  { plan_chains; roles }

let set_enabled (_ : bool option) = ()
