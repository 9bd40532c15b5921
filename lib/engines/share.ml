(* One epoch-versioned store of shared intermediates (docs/serving.md,
   "Shared store"): one entry table under one epoch table and one
   flight table. A scan entry holds no bytes (jobs always fetch from
   HDFS; the entry records who paid the modeled read); a subplan entry
   holds the materialized prefix. Each records the (relation, epoch)
   pairs it read, and a write to one of them drops it, so byte-identity
   cannot depend on the store, only modeled makespan can.

   An entry lives while a flight leases it (sharing between co-admitted
   workflows) or while it sits inside the byte budget (reuse across
   time: subplan entries only, LRU under --subresult-cache-mb). *)

type key = Scan of string | Subplan of string

type entry = {
  reads : (string * int) list;  (* relations read and their epochs *)
  mb : float;
  table : Relation.Table.t option;  (* None for a scan *)
  mutable lease : int option;
      (* flight holding the entry; [Some (-1)] when made outside any
         flight, which never ends *)
  mutable budgeted : bool;
  mutable last : int;  (* LRU tick of the last budgeted touch *)
}

type stats = {
  hits : int; misses : int; evictions : int; invalidations : int;
  entries : int; bytes_mb : float;
}

type t = {
  capacity_mb : float;
  entries : (key, entry) Hashtbl.t;
  epochs : (string, int) Hashtbl.t;
  paid : (key, int) Hashtbl.t;  (* paid scans and materializations *)
  flights : (int, unit) Hashtbl.t;
  mutable next_flight : int;
  mutable current : int;
  mutable tick : int;
  mutable bytes_mb : float;  (* modeled MB inside the budget *)
  mutable saved_mb : float;
  mutable attached_mb : float;
  mutable hits : int; mutable misses : int;
  mutable evictions : int; mutable invalidations : int;
}

let create ?(capacity_mb = 0.) () =
  { capacity_mb; entries = Hashtbl.create 16; epochs = Hashtbl.create 16;
    paid = Hashtbl.create 16; flights = Hashtbl.create 8; next_flight = 0;
    current = -1; tick = 0; bytes_mb = 0.; saved_mb = 0.; attached_mb = 0.;
    hits = 0; misses = 0; evictions = 0; invalidations = 0 }

let incr name = Obs.Metrics.incr Obs.Metrics.default name

let epoch t relation =
  Option.value (Hashtbl.find_opt t.epochs relation) ~default:0

(* ---- flights: the co-admission window ---- *)

let begin_flight t =
  let id = t.next_flight in
  t.next_flight <- id + 1;
  Hashtbl.replace t.flights id ();
  id

(* The flight's leases end: what it paid for leaves the window, and an
   entry outside the byte budget leaves the store. *)
let end_flight t id =
  Hashtbl.remove t.flights id;
  Hashtbl.filter_map_inplace
    (fun _ e ->
       if e.lease <> Some id then Some e
       else begin
         e.lease <- None;
         if e.budgeted then Some e else None
       end)
    t.entries

let with_flight t id f =
  let prev = t.current in
  t.current <- id;
  Fun.protect ~finally:(fun () -> t.current <- prev) f

let open_flights t = Hashtbl.length t.flights

(* ---- invalidation ---- *)

let unbudget t e =
  if e.budgeted then begin
    e.budgeted <- false;
    t.bytes_mb <- Float.max 0. (t.bytes_mb -. e.mb)
  end

(* One dropped subplan entry is one invalidation; a scan entry holds
   nothing to invalidate and is not counted. *)
let invalidated t key e =
  unbudget t e;
  match key with
  | Subplan _ ->
    t.invalidations <- t.invalidations + 1;
    incr "subplan.invalidated"
  | Scan _ -> ()

let drop_readers t relation =
  Hashtbl.filter_map_inplace
    (fun key e ->
       if List.mem_assoc relation e.reads then begin
         invalidated t key e;
         None
       end
       else Some e)
    t.entries

(* A relation was overwritten (a client upload, or an engine writing it
   under the store's scope): bump its epoch and drop every entry that
   read it. *)
let note_write t relation =
  Hashtbl.replace t.epochs relation (epoch t relation + 1);
  drop_readers t relation

(* Restart replay: raise a relation's epoch to [e], never lower it. *)
let set_epoch t relation e =
  if e > epoch t relation then begin
    Hashtbl.replace t.epochs relation e;
    drop_readers t relation
  end

(* The entry under [key] if every relation it read is still at the
   epoch it read. The writers above drop readers eagerly; this check
   is the safety net, and a stale entry is dropped, never served. *)
let lookup t key =
  match Hashtbl.find_opt t.entries key with
  | Some e when List.for_all (fun (r, ep) -> epoch t r = ep) e.reads ->
    Some e
  | Some e ->
    Hashtbl.remove t.entries key;
    invalidated t key e;
    None
  | None -> None

let add t key e =
  Hashtbl.replace t.entries key e;
  Hashtbl.replace t.paid key
    (1 + Option.value (Hashtbl.find_opt t.paid key) ~default:0)

(* ---- scans ---- *)

(* [true] when the scan rides free on a payment for the relation's
   current epoch. A re-claim by the paying flight itself (several jobs
   of one submission, or a cached plan replaying its scans) counts as
   [scan.intra_flight]: the cross counters and the saved-MB gauge only
   measure sharing between co-admitted workflows. *)
let claim t ~relation ~mb =
  match lookup t (Scan relation) with
  | Some e when t.current >= 0 && e.lease = Some t.current ->
    incr "scan.intra_flight";
    true
  | Some _ ->
    t.saved_mb <- t.saved_mb +. mb;
    incr "scan.cross_workflow";
    Obs.Metrics.add_gauge Obs.Metrics.default "scan.cross_mb_saved" mb;
    true
  | None ->
    add t (Scan relation)
      { reads = [ (relation, epoch t relation) ]; mb; table = None;
        lease = Some t.current; budgeted = false; last = 0 };
    false

(* ---- subplans ---- *)

(* A leased entry attaches first (no LRU touch, no cache hit or miss);
   then a budgeted one is a cache hit that touches the LRU tick. *)
let find t ~key =
  match lookup t (Subplan key) with
  | Some { table = Some table; lease = Some _; mb; _ } ->
    t.attached_mb <- t.attached_mb +. mb;
    incr "subplan.cross_workflow";
    Obs.Metrics.add_gauge Obs.Metrics.default "subplan.attached_mb" mb;
    Some (table, mb)
  | Some ({ table = Some table; _ } as e) ->
    t.tick <- t.tick + 1;
    e.last <- t.tick;
    t.hits <- t.hits + 1;
    incr "subresult.hits";
    Some (table, e.mb)
  | Some { table = None; _ } | None ->
    t.misses <- t.misses + 1;
    None

(* LRU eviction takes entries out of the budget only: one that a flight
   still leases stays claimable until the lease ends. *)
let rec make_room t mb =
  if t.bytes_mb +. mb > t.capacity_mb then begin
    let victim =
      Hashtbl.fold
        (fun key e acc ->
           match acc with
           | _ when not e.budgeted -> acc
           | Some (_, best) when best.last <= e.last -> acc
           | _ -> Some (key, e))
        t.entries None
    in
    match victim with
    | None -> t.bytes_mb <- 0.  (* nothing left; float dust *)
    | Some (key, e) ->
      unbudget t e;
      if e.lease = None then Hashtbl.remove t.entries key;
      t.evictions <- t.evictions + 1;
      incr "subresult.evictions";
      make_room t mb
  end

(* Record a prefix materialized by the current flight, stored once in
   the form [Table.for_store] picks. It joins the byte budget when it
   fits; a larger one is shared only within its lease. *)
let publish t ~key ~inputs ~mb table =
  let key = Subplan key in
  Option.iter
    (fun old -> Hashtbl.remove t.entries key; unbudget t old)
    (Hashtbl.find_opt t.entries key);
  let budgeted = t.capacity_mb > 0. && mb <= t.capacity_mb in
  if budgeted then make_room t mb;
  t.tick <- t.tick + 1;
  add t key
    { reads = List.map (fun r -> (r, epoch t r)) inputs; mb;
      table = Some (Relation.Table.for_store table); lease = Some t.current;
      budgeted; last = t.tick };
  if budgeted then t.bytes_mb <- t.bytes_mb +. mb;
  incr "subplan.paid"

(* ---- accounting ---- *)

let paid t key = Option.value (Hashtbl.find_opt t.paid key) ~default:0

let paid_reads t relation = paid t (Scan relation)

let paid_all t =
  Hashtbl.fold
    (fun key n acc ->
       match key with Scan rel -> (rel, n) :: acc | Subplan _ -> acc)
    t.paid []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let paid_count t ~key = paid t (Subplan key)

let saved_mb t = t.saved_mb

let attached_mb t = t.attached_mb

let stats t =
  { hits = t.hits; misses = t.misses; evictions = t.evictions;
    invalidations = t.invalidations;
    entries =
      Hashtbl.fold (fun _ e n -> if e.budgeted then n + 1 else n) t.entries 0;
    bytes_mb = t.bytes_mb }
