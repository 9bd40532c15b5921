type chain = {
  source : int;
  members : int list;
}

type role =
  | Solo
  | Interior of chain
  | Tail of chain

type plan = {
  plan_chains : chain list;
  roles : (int, role) Hashtbl.t;
}

let empty = { plan_chains = []; roles = Hashtbl.create 1 }

let chains p = p.plan_chains

let role p id =
  match Hashtbl.find_opt p.roles id with
  | Some r -> r
  | None -> Solo

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
  let taken : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let found = ref [] in
  List.iter
    (fun (n : Operator.node) ->
       if fusable n.kind && not (Hashtbl.mem taken n.id) then begin
         (* grow forward while the current tail may become interior:
            single consumer, itself fusable, and nobody else — job
            output collection or a by-name lookup — can see its table *)
         let rec grow acc (t : Operator.node) =
           if Hashtbl.mem is_output t.id || Hashtbl.mem protected t.output
           then acc
           else
             match Dag.consumers g t.id with
             | [ c ] ->
               let cn = Dag.node g c in
               if fusable cn.kind && not (Hashtbl.mem taken c) then
                 grow (cn :: acc) cn
               else acc
             | _ -> acc
         in
         let members = List.rev (grow [ n ] n) in
         (* a 1-node "chain" is just the unfused operator; leave the
            node unmarked so it can still head a later attempt *)
         if List.length members >= 2 then begin
           List.iter
             (fun (m : Operator.node) -> Hashtbl.replace taken m.id ())
             members;
           found :=
             { source = List.hd n.inputs;
               members = List.map (fun (m : Operator.node) -> m.id) members }
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
       mark c.members)
    plan_chains;
  { plan_chains; roles }

let override = ref None

let set_enabled v = override := v

let env_enabled () =
  match Sys.getenv_opt "MUSKETEER_FUSION" with
  | Some ("0" | "false" | "off" | "no") -> false
  | Some _ | None -> true

let enabled () =
  match !override with
  | Some b -> b
  | None -> env_enabled ()
