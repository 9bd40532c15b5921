(* Bounded materialized sub-result cache: where Subplan_share spans
   one co-admission window, this cache carries materialized prefixes
   across *time*, so repeat traffic an hour apart still skips shared
   prefixes. LRU by bytes (modeled MB), capacity from
   --subresult-cache-mb; keys are the same subtree-hash × environment
   fingerprints as the share.

   Freshness is epoch-based and checked on every probe: each entry
   records the (relation, epoch) pairs its prefix transitively read,
   and [find] revalidates them against the caller's epoch function (the
   service passes Subplan_share.epoch, which put_input bumps). A stale
   entry is dropped, never served — byte-identity cannot depend on the
   cache being right, only makespan can. *)

type entry = {
  c_inputs : (string * int) list;
  c_mb : float;
  c_table : Relation.Table.t;
  mutable c_last : int;  (* LRU tick of last touch *)
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  entries : int;
  bytes_mb : float;
}

type t = {
  capacity_mb : float;
  tbl : (string, entry) Hashtbl.t;
  mutable tick : int;
  mutable bytes_mb : float;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
}

let create ~capacity_mb =
  {
    capacity_mb;
    tbl = Hashtbl.create 16;
    tick = 0;
    bytes_mb = 0.;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
  }

let capacity_mb t = t.capacity_mb

let drop t key e =
  Hashtbl.remove t.tbl key;
  t.bytes_mb <- Float.max 0. (t.bytes_mb -. e.c_mb)

let find t ~key ~epoch =
  match Hashtbl.find_opt t.tbl key with
  | Some e when List.for_all (fun (rel, ep) -> epoch rel = ep) e.c_inputs ->
    t.tick <- t.tick + 1;
    e.c_last <- t.tick;
    t.hits <- t.hits + 1;
    Obs.Metrics.incr Obs.Metrics.default "subresult.hits";
    Some (e.c_table, e.c_mb)
  | Some e ->
    drop t key e;
    t.invalidations <- t.invalidations + 1;
    t.misses <- t.misses + 1;
    Obs.Metrics.incr Obs.Metrics.default "subresult.invalidated";
    None
  | None ->
    t.misses <- t.misses + 1;
    None

let insert t ~key ~inputs ~mb table =
  if t.capacity_mb > 0. && mb <= t.capacity_mb then begin
    (match Hashtbl.find_opt t.tbl key with
     | Some old -> drop t key old
     | None -> ());
    (* evict least-recently-touched entries until the new one fits *)
    while t.bytes_mb +. mb > t.capacity_mb do
      let victim =
        Hashtbl.fold
          (fun k e acc ->
             match acc with
             | Some (_, best) when best.c_last <= e.c_last -> acc
             | _ -> Some (k, e))
          t.tbl None
      in
      match victim with
      | None -> t.bytes_mb <- 0.  (* nothing left; float dust *)
      | Some (k, e) ->
        drop t k e;
        t.evictions <- t.evictions + 1;
        Obs.Metrics.incr Obs.Metrics.default "subresult.evictions"
    done;
    t.tick <- t.tick + 1;
    Hashtbl.replace t.tbl key
      { c_inputs = inputs; c_mb = mb;
        c_table = Relation.Table.for_store table; c_last = t.tick };
    t.bytes_mb <- t.bytes_mb +. mb
  end

(* An input relation was overwritten out-of-band: drop every entry
   whose prefix read it (epoch validation would catch it on probe, but
   dropping now frees budget immediately). *)
let invalidate t ~relation =
  let stale =
    Hashtbl.fold
      (fun key e acc ->
         if List.mem_assoc relation e.c_inputs then (key, e) :: acc else acc)
      t.tbl []
  in
  List.iter
    (fun (key, e) ->
       drop t key e;
       t.invalidations <- t.invalidations + 1;
       Obs.Metrics.incr Obs.Metrics.default "subresult.invalidated")
    stale

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    invalidations = t.invalidations;
    entries = Hashtbl.length t.tbl;
    bytes_mb = t.bytes_mb;
  }
