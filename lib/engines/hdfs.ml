type entry = {
  table : Relation.Table.t;
  modeled_mb : float;
}

type t = {
  entries : (string, entry) Hashtbl.t;
  mutable read_mb : float;
  mutable written_mb : float;
}

let create () = { entries = Hashtbl.create 32; read_mb = 0.; written_mb = 0. }

let put t name ?modeled_mb table =
  let modeled_mb =
    match modeled_mb with
    | Some mb -> mb
    | None -> Relation.Table.encoded_mb table
  in
  (* a stored table keeps whichever of its view and its gathered columns
     is smaller, so an entry never pins more than its columns would hold *)
  Hashtbl.replace t.entries name
    { table = Relation.Table.for_store table; modeled_mb }

exception No_such_relation of string

let get t name =
  match Hashtbl.find_opt t.entries name with
  | Some e -> e
  | None -> raise (No_such_relation name)

let table t name = (get t name).table

let modeled_mb t name = (get t name).modeled_mb

let mem t name = Hashtbl.mem t.entries name

let remove t name = Hashtbl.remove t.entries name

let list t =
  List.sort String.compare
    (Hashtbl.fold (fun name _ acc -> name :: acc) t.entries [])

let note_read t ~mb = t.read_mb <- t.read_mb +. mb

let note_write t ~mb = t.written_mb <- t.written_mb +. mb

let total_read_mb t = t.read_mb

let total_written_mb t = t.written_mb

let snapshot t =
  { entries = Hashtbl.copy t.entries; read_mb = t.read_mb;
    written_mb = t.written_mb }

let restore t ~from =
  Hashtbl.reset t.entries;
  Hashtbl.iter (fun name e -> Hashtbl.replace t.entries name e) from.entries;
  t.read_mb <- from.read_mb;
  t.written_mb <- from.written_mb
