(* Plan cache for the serving layer: repeat submissions of a workflow
   skip optimize + estimate + partition entirely. Keyed on the
   submission graph's structural hash; entries carry a fingerprint of
   everything planning depends on besides the graph, so a hit is only
   served while the planning environment is unchanged. *)

type cached_plan = { plan : Partitioner.plan; graph : Ir.Dag.t }

type lookup =
  | Hit of cached_plan
  | Miss
  | Invalidated

type entry = {
  fingerprint : string;
  cached : cached_plan;
  mutable last_use : int;
}

type t = {
  capacity : int;
  entries : (string, entry) Hashtbl.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
}

type stats = { hits : int; misses : int; invalidations : int }

let create ?(capacity = 128) () =
  if capacity <= 0 then invalid_arg "Plan_cache.create: capacity must be > 0";
  {
    capacity;
    entries = Hashtbl.create 64;
    tick = 0;
    hits = 0;
    misses = 0;
    invalidations = 0;
  }

let stats (t : t) =
  { hits = t.hits; misses = t.misses; invalidations = t.invalidations }

let hit_rate (t : t) =
  let total = t.hits + t.misses + t.invalidations in
  if total = 0 then 0. else float_of_int t.hits /. float_of_int total

let size t = Hashtbl.length t.entries

(* Everything [Musketeer.plan] reads besides the graph itself: the
   breaker-filtered candidate engines, the profile's calibration
   factors (they scale the cost model), the planning flags, the
   per-workflow history key, and the modeled sizes of the graph's INPUT
   relations (the estimator seeds from them — a grown input must
   re-plan). *)
let fingerprint ~profile ~backends ~merging ~optimize ~workflow ~hdfs g =
  let buf = Buffer.create 128 in
  let add s =
    Buffer.add_string buf s;
    Buffer.add_char buf '|'
  in
  List.iter add
    (List.sort String.compare (List.map Engines.Backend.name backends));
  add "cal";
  List.iter
    (fun (name, f) -> add (Printf.sprintf "%s=%.6f" name f))
    (Profile.calibration profile);
  add (Printf.sprintf "merging=%b;optimize=%b" merging optimize);
  add ("workflow=" ^ workflow);
  add "inputs";
  List.iter
    (fun r ->
       let mb =
         if Engines.Hdfs.mem hdfs r then Engines.Hdfs.modeled_mb hdfs r
         else -1.
       in
       add (Printf.sprintf "%s=%.4f" r mb))
    (List.sort String.compare (Ir.Dag.input_relations g));
  Buffer.contents buf

let find t ~hash ~fingerprint =
  t.tick <- t.tick + 1;
  match Hashtbl.find_opt t.entries hash with
  | Some e when String.equal e.fingerprint fingerprint ->
    e.last_use <- t.tick;
    t.hits <- t.hits + 1;
    Obs.Metrics.incr Obs.Metrics.default "plan_cache.hits";
    Hit e.cached
  | Some _ ->
    (* same workflow, changed environment: breaker tripped, calibration
       moved, inputs overwritten, … — drop the entry and re-plan *)
    Hashtbl.remove t.entries hash;
    t.invalidations <- t.invalidations + 1;
    Obs.Metrics.incr Obs.Metrics.default "plan_cache.invalidations";
    Invalidated
  | None ->
    t.misses <- t.misses + 1;
    Obs.Metrics.incr Obs.Metrics.default "plan_cache.misses";
    Miss

let store t ~hash ~fingerprint cached =
  t.tick <- t.tick + 1;
  if (not (Hashtbl.mem t.entries hash)) && Hashtbl.length t.entries >= t.capacity
  then begin
    (* evict the least recently used entry *)
    let victim =
      Hashtbl.fold
        (fun h e acc ->
           match acc with
           | Some (_, best) when best.last_use <= e.last_use -> acc
           | _ -> Some (h, e))
        t.entries None
    in
    match victim with
    | Some (h, _) -> Hashtbl.remove t.entries h
    | None -> ()
  end;
  Hashtbl.replace t.entries hash { fingerprint; cached; last_use = t.tick }

let lookup_label = function
  | Hit _ -> "hit"
  | Miss -> "miss"
  | Invalidated -> "invalidated"
