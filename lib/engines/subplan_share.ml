(* Cross-workflow shared subplans (ROADMAP multi-query optimization,
   second half): where Scan_share amortizes INPUT reads, this table
   amortizes whole common *prefixes*. Keyed by subtree hash × an
   environment fingerprint (the serving layer folds in every gate that
   could change the materialized bytes), so two co-admitted workflows
   whose DAG prefixes canonical-hash equal execute the prefix once:
   the first is the payer, later claims attach to its materialized
   HDFS output.

   Unlike Scan_share this table *does* carry the materialized table —
   the payer published it, attachers re-[Hdfs.put] it under the
   synthetic "__subplan:<hash>" relation inside their own snapshot
   scope — but never as a source of truth for correctness: tables are
   immutable values, the entry records the epochs of every transitively
   read INPUT at publication time, and any write to one of them
   invalidates the entry, so a stale prefix can never be attached. *)

type entry = {
  e_epochs : (string * int) list;
      (* transitively-read INPUT relations and their epochs when the
         prefix was computed *)
  e_payer : int;
  e_mb : float;
  e_table : Relation.Table.t;
}

type t = {
  entries : (string, entry) Hashtbl.t;  (* key → materialization *)
  epochs : (string, int) Hashtbl.t;
  paid : (string, int) Hashtbl.t;  (* materializations per key *)
  flights : (int, unit) Hashtbl.t;
  mutable next_flight : int;
  mutable current_flight : int;
  mutable attached_mb : float;
}

let create () =
  {
    entries = Hashtbl.create 16;
    epochs = Hashtbl.create 16;
    paid = Hashtbl.create 16;
    flights = Hashtbl.create 8;
    next_flight = 0;
    current_flight = -1;
    attached_mb = 0.;
  }

let epoch t relation =
  Option.value (Hashtbl.find_opt t.epochs relation) ~default:0

let begin_flight t =
  let id = t.next_flight in
  t.next_flight <- id + 1;
  Hashtbl.replace t.flights id ();
  id

let end_flight t id =
  Hashtbl.remove t.flights id;
  (* payer-expiry: materializations published by the finished flight
     leave the co-admission window. Across-time reuse is the
     sub-result cache's job (lib/serve), which has a byte budget —
     this table must not grow into an unbounded one. *)
  let expired =
    Hashtbl.fold
      (fun key e acc -> if e.e_payer = id then key :: acc else acc)
      t.entries []
  in
  List.iter (Hashtbl.remove t.entries) expired

let with_flight t id f =
  let prev = t.current_flight in
  t.current_flight <- id;
  Fun.protect ~finally:(fun () -> t.current_flight <- prev) f

let fresh t e =
  List.for_all (fun (rel, ep) -> epoch t rel = ep) e.e_epochs

(* [claim t ~key] — the materialized prefix to attach to, when a
   co-admitted workflow published one and every input it read is still
   at the epoch it read. A stale entry is dropped on probe. *)
let claim t ~key =
  match Hashtbl.find_opt t.entries key with
  | Some e when fresh t e ->
    t.attached_mb <- t.attached_mb +. e.e_mb;
    Obs.Metrics.incr Obs.Metrics.default "subplan.cross_workflow";
    Obs.Metrics.add_gauge Obs.Metrics.default "subplan.attached_mb" e.e_mb;
    Some (e.e_table, e.e_mb)
  | Some _ ->
    Hashtbl.remove t.entries key;
    Obs.Metrics.incr Obs.Metrics.default "subplan.invalidated";
    None
  | None -> None

let publish t ~key ~inputs ~mb table =
  Hashtbl.replace t.entries key
    {
      e_epochs = List.map (fun rel -> (rel, epoch t rel)) inputs;
      e_payer = t.current_flight;
      e_mb = mb;
      e_table = Relation.Table.materialize table;
    };
  Hashtbl.replace t.paid key
    (1 + Option.value (Hashtbl.find_opt t.paid key) ~default:0);
  Obs.Metrics.incr Obs.Metrics.default "subplan.paid"

(* A relation was overwritten: bump its epoch and drop every entry
   whose prefix transitively read it. *)
let note_write t relation =
  Hashtbl.replace t.epochs relation (epoch t relation + 1);
  let stale =
    Hashtbl.fold
      (fun key e acc ->
         if List.mem_assoc relation e.e_epochs then key :: acc else acc)
      t.entries []
  in
  List.iter
    (fun key ->
       Hashtbl.remove t.entries key;
       Obs.Metrics.incr Obs.Metrics.default "subplan.invalidated")
    stale

let open_flights t = Hashtbl.length t.flights

(* Restart replay: raise a relation's epoch to [e] (never lower it).
   Goes through [note_write] so entries that read the relation are
   dropped, then jumps the epoch the rest of the way. *)
let set_epoch t relation e =
  if e > epoch t relation then begin
    note_write t relation;
    if e > epoch t relation then Hashtbl.replace t.epochs relation e
  end

let paid_count t ~key =
  Option.value (Hashtbl.find_opt t.paid key) ~default:0

let total_paid t = Hashtbl.fold (fun _ n acc -> acc + n) t.paid 0

let attached_mb t = t.attached_mb
