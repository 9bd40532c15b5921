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

type argmin = {
  cross : int;
  map : int;
  group : int;
  join : int;
  select : int;
  target : string;
  expr : Relation.Expr.t;
  key : string;
  min_as : string;
  min_column : string;
}

type map_group_by = {
  mg_map : int;
  mg_group : int;
  mg_target : string;
  mg_expr : Relation.Expr.t;
  mg_keys : string list;
  mg_aggs : Relation.Aggregate.t list;
}

type plan = {
  plan_chains : chain list;
  roles : (int, role) Hashtbl.t;
  plan_argmins : argmin list;
  plan_map_group_bys : map_group_by list Lazy.t;
}

let chains p = p.plan_chains

let argmins p = p.plan_argmins

let map_group_bys p = Lazy.force p.plan_map_group_bys

let role p id =
  match Hashtbl.find_opt p.roles id with
  | Some r -> r
  | None -> Solo

let row_local c = if c.join_head then List.tl c.members else c.members

let fusable = function
  | Operator.Select _ | Operator.Project _ | Operator.Map _ -> true
  | _ -> false

(* Where each column of a GROUP BY's table comes from, carried through
   the MAP and PROJECT nodes after it: a copy of its one key, a copy of
   its one aggregate, or anything else. [None] when a node reads a
   column the table does not have (it raises when run). *)
let trace_columns (path : Operator.node list) ~key ~agg =
  let step cols (n : Operator.node) =
    match (cols, n.kind) with
    | None, _ -> None
    | Some cols, Operator.Map { target; expr } ->
      let origin =
        match expr with
        | Relation.Expr.Col c -> List.assoc_opt c cols
        | _ -> Some `Other
      in
      Option.map
        (fun o ->
           if List.mem_assoc target cols then
             List.map (fun (c, o') -> (c, if c = target then o else o')) cols
           else cols @ [ (target, o) ])
        origin
    | Some cols, Operator.Project { columns } ->
      List.fold_right
        (fun c acc ->
           match (acc, List.assoc_opt c cols) with
           | Some acc, Some o -> Some ((c, o) :: acc)
           | _ -> None)
        columns (Some [])
    | Some _, _ -> None
  in
  List.fold_left step (Some [ (key, `Key); (agg, `Agg) ]) path

(* The arg-min diamond a JOIN-headed chain closes, if any (see
   fusion.mli): the JOIN's left input is a MAP over a CROSS, read by
   nothing but the JOIN and a GROUP BY MIN over it, and the JOIN's right
   input is that GROUP BY's table carried through MAPs and PROJECTs. *)
let argmin_of g ~consumers ~hidden (c : chain) =
  let ( let* ) = Option.bind in
  let node = Dag.node g in
  let consumer_ids id =
    List.sort Int.compare
      (List.map
         (fun (n : Operator.node) -> n.id)
         (Option.value (Hashtbl.find_opt consumers id) ~default:[]))
  in
  let* j, s =
    match c.members with
    | j :: s :: _ when c.join_head -> Some (node j, node s)
    | _ -> None
  in
  let* left_key, right_key, mid, bid =
    match (j.kind, j.inputs) with
    | Operator.Join { left_key; right_key }, [ mid; bid ] ->
      Some (left_key, right_key, mid, bid)
    | _ -> None
  in
  let m = node mid in
  let* target, expr, xid =
    match (m.kind, m.inputs) with
    | Operator.Map { target; expr }, [ xid ] -> Some (target, expr, xid)
    | _ -> None
  in
  let x = node xid in
  let* () =
    match x.kind with
    | Operator.Cross when hidden x && hidden m && consumer_ids xid = [ mid ] ->
      Some ()
    | _ -> None
  in
  let* gb =
    match List.filter (( <> ) j.id) (consumer_ids mid) with
    | [ gid ] when List.length (consumer_ids mid) = 2 -> Some (node gid)
    | _ -> None
  in
  let* min_as =
    match gb.kind with
    | Operator.Group_by
        { keys = [ key ];
          aggs = [ { Relation.Aggregate.fn = Relation.Aggregate.Min t; as_name } ]
        }
      when t = target && key = left_key ->
      Some as_name
    | _ -> None
  in
  (* the nodes from the GROUP BY to the JOIN's right input *)
  let rec path id acc =
    if id = gb.id then Some acc
    else
      match node id with
      | { kind = Operator.Map _ | Operator.Project _; inputs = [ i ]; _ } as n
        ->
        path i (n :: acc)
      | _ -> None
  in
  let* path = path bid [] in
  let* cols = trace_columns path ~key:left_key ~agg:min_as in
  let* () =
    if List.assoc_opt right_key cols = Some `Key then Some () else None
  in
  let* min_column =
    match s.kind with
    | Operator.Select
        { pred = Relation.Expr.Cmp (Relation.Expr.Eq, Col a, Col b) } -> (
      let is_min c = List.assoc_opt c cols = Some `Agg in
      if a = target && is_min b then Some b
      else if b = target && is_min a then Some a
      else None)
    | _ -> None
  in
  Some
    { cross = x.id; map = m.id; group = gb.id; join = j.id; select = s.id;
      target; expr; key = left_key; min_as; min_column }

let plan ?(protect = []) (g : Operator.graph) =
  let protected : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter (fun r -> Hashtbl.replace protected r ()) protect;
  List.iter (fun r -> Hashtbl.replace protected r ()) g.loop_carried;
  let is_output : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter (fun id -> Hashtbl.replace is_output id ()) g.outputs;
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
  (* whether nobody but its consumers — not job output collection, not
     a by-name lookup — can see [t]'s table *)
  let hidden (t : Operator.node) =
    not (Hashtbl.mem is_output t.id || Hashtbl.mem protected t.output)
  in
  (* the node that may follow [t] in a chain: [t]'s single consumer,
     when [t] is hidden *)
  let next (t : Operator.node) =
    if not (hidden t) then None
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
  let plan_argmins =
    List.filter_map (argmin_of g ~consumers ~hidden) plan_chains
  in
  (* a hidden MAP whose one consumer is a GROUP BY not keyed on its
     target; only execution asks, so pricing never builds the list *)
  let plan_map_group_bys =
    lazy
      (List.filter_map
         (fun (m : Operator.node) ->
            match m.kind with
            | Operator.Map { target; expr } when hidden m -> (
              match Hashtbl.find_opt consumers m.id with
              | Some [ { kind = Operator.Group_by { keys; aggs }; id; _ } ]
                when not (List.mem target keys) ->
                Some
                  { mg_map = m.id; mg_group = id; mg_target = target;
                    mg_expr = expr; mg_keys = keys; mg_aggs = aggs }
              | _ -> None)
            | _ -> None)
         g.nodes)
  in
  { plan_chains; roles; plan_argmins; plan_map_group_bys }

let set_enabled (_ : bool option) = ()
