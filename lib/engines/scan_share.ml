(* Cross-workflow shared scans (ROADMAP multi-query optimization): a
   service-scoped generalization of the per-job shared-scan table.
   The share never caches table bytes — HDFS is the source of truth and
   every job still fetches from it, so byte-identity of results cannot
   depend on this module. What it shares is the *accounting*: the first
   co-admitted workflow to scan an INPUT relation pays the modeled read
   (input_mb, and hence makespan); while that workflow is still in
   flight, further claims on the same epoch of the relation ride free. *)

type entry = {
  epoch : int;  (* relation epoch when the read was paid *)
  payer : int;  (* flight that paid; -1 when claimed outside a flight *)
  mb : float;
}

type t = {
  entries : (string, entry) Hashtbl.t;
  epochs : (string, int) Hashtbl.t;
  paid : (string, int) Hashtbl.t;  (* paid HDFS fetches per relation *)
  flights : (int, unit) Hashtbl.t;
  mutable next_flight : int;
  mutable current_flight : int;
  mutable saved_mb : float;
}

let create () =
  {
    entries = Hashtbl.create 16;
    epochs = Hashtbl.create 16;
    paid = Hashtbl.create 16;
    flights = Hashtbl.create 8;
    next_flight = 0;
    current_flight = -1;
    saved_mb = 0.;
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
  (* entries the finished flight paid for leave the co-admission
     window: later submissions must pay the scan again *)
  let expired =
    Hashtbl.fold
      (fun rel e acc -> if e.payer = id then rel :: acc else acc)
      t.entries []
  in
  List.iter (Hashtbl.remove t.entries) expired

let with_flight t id f =
  let prev = t.current_flight in
  t.current_flight <- id;
  Fun.protect ~finally:(fun () -> t.current_flight <- prev) f

(* [claim t ~relation ~mb] — true when a co-admitted workflow already
   paid for the current epoch of [relation] (the scan is free); false
   when this claim pays, recording the current flight as payer.

   A re-claim by the *paying flight itself* (several jobs of one
   submission scanning the same INPUT, or a plan-cache hit replaying a
   cached plan's scans) still rides free but is counted as
   [scan.intra_flight], not [scan.cross_workflow]: the cross counters
   and saved-MB gauge must only measure sharing *between* co-admitted
   workflows, so repeat traffic with no overlap pins them at zero. *)
let claim t ~relation ~mb =
  let current_epoch = epoch t relation in
  match Hashtbl.find_opt t.entries relation with
  | Some e when e.epoch = current_epoch && e.payer = t.current_flight
             && t.current_flight >= 0 ->
    Obs.Metrics.incr Obs.Metrics.default "scan.intra_flight";
    true
  | Some e when e.epoch = current_epoch ->
    t.saved_mb <- t.saved_mb +. mb;
    Obs.Metrics.incr Obs.Metrics.default "scan.cross_workflow";
    Obs.Metrics.add_gauge Obs.Metrics.default "scan.cross_mb_saved" mb;
    true
  | stale ->
    (match stale with
     | Some _ ->
       Hashtbl.remove t.entries relation;
       Obs.Metrics.incr Obs.Metrics.default "scan.cross_invalidated"
     | None -> ());
    Hashtbl.replace t.entries relation
      { epoch = current_epoch; payer = t.current_flight; mb };
    Hashtbl.replace t.paid relation
      (1 + Option.value (Hashtbl.find_opt t.paid relation) ~default:0);
    false

(* An input was overwritten: bump its epoch so outstanding entries stop
   matching. Called for every relation an engine materializes while a
   share is in scope, and by the service when a client overwrites an
   input out-of-band. *)
let note_write t relation =
  Hashtbl.replace t.epochs relation (epoch t relation + 1);
  Hashtbl.remove t.entries relation

let open_flights t = Hashtbl.length t.flights

(* Restart replay: raise a relation's epoch to [e] (never lower it —
   replay from a ledger must not resurrect entries newer state already
   invalidated). *)
let set_epoch t relation e =
  if e > epoch t relation then begin
    Hashtbl.replace t.epochs relation e;
    Hashtbl.remove t.entries relation
  end

let paid_reads t relation =
  Option.value (Hashtbl.find_opt t.paid relation) ~default:0

let paid_all t =
  Hashtbl.fold (fun rel n acc -> (rel, n) :: acc) t.paid []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let saved_mb t = t.saved_mb

(* Dynamic scope: installing a share here lets [Exec_helper.eval_graph]
   and the engines consult it without threading a parameter through
   every engine signature. Main-domain only. *)
let installed : t option ref = ref None

let active () = !installed

let with_scope share f =
  let prev = !installed in
  installed := Some share;
  Fun.protect ~finally:(fun () -> installed := prev) f
