type state =
  | Closed
  | Open
  | Half_open

let state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type config = {
  threshold : int;
  window : int;
  cooldown : int;
}

type entry = {
  mutable st : state;
  mutable outcomes : bool list;  (** most recent first, [true] = success *)
  mutable open_until : int;      (** logical tick, meaningful when Open *)
  mutable cooldown_cur : int;    (** doubles on each failed probe *)
  mutable trips : int;
  mutable probing : bool;        (** a probe slot is claimed (Half_open) *)
  mutable probe_until : int;     (** tick at which a lost probe releases *)
}

type t = {
  config : config;
  entries : (Backend.t, entry) Hashtbl.t;
  mutable clock : int;
  tenant : string option;  (** labels the [breaker.open.*] gauges *)
}

let create ?(threshold = 3) ?(window = 8) ?(cooldown = 8) () =
  if threshold < 1 then invalid_arg "Breaker.create: threshold < 1";
  if window < threshold then invalid_arg "Breaker.create: window < threshold";
  if cooldown < 1 then invalid_arg "Breaker.create: cooldown < 1";
  { config = { threshold; window; cooldown };
    entries = Hashtbl.create 7;
    clock = 0;
    tenant = None }

let fresh ?tenant t =
  { config = t.config; entries = Hashtbl.create 7; clock = 0; tenant }

let entry t backend =
  match Hashtbl.find_opt t.entries backend with
  | Some e -> e
  | None ->
    let e =
      { st = Closed; outcomes = []; open_until = 0;
        cooldown_cur = t.config.cooldown; trips = 0;
        probing = false; probe_until = 0 }
    in
    Hashtbl.replace t.entries backend e;
    e

let take n xs =
  let rec go n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: go (n - 1) rest
  in
  go n xs

let set_open_gauge t backend v =
  let name =
    match t.tenant with
    | None -> "breaker.open." ^ Backend.name backend
    | Some tenant -> "breaker.open." ^ tenant ^ "." ^ Backend.name backend
  in
  Obs.Metrics.set_gauge Obs.Metrics.default name v

(* Open -> Half_open once the cool-down has elapsed. Reads as well as
   writes perform this refresh, so [state]/[filter] see the probe
   window without needing a separate ticker. *)
let refresh t backend e =
  if e.st = Open && t.clock >= e.open_until then begin
    e.st <- Half_open;
    e.probing <- false;
    Obs.Metrics.incr Obs.Metrics.default "breaker.probes";
    set_open_gauge t backend 0.
  end;
  (* a claimed probe that never reported back releases after one
     cooldown's worth of ticks, so a lost probe cannot wedge the
     half-open window shut forever *)
  if e.st = Half_open && e.probing && t.clock >= e.probe_until then
    e.probing <- false

let trip t backend e =
  e.st <- Open;
  e.probing <- false;
  e.open_until <- t.clock + e.cooldown_cur;
  e.trips <- e.trips + 1;
  Obs.Metrics.incr Obs.Metrics.default "breaker.trips";
  set_open_gauge t backend 1.

(* Restart replay: re-open a breaker recorded as open in the ledger,
   without counting a fresh trip. The cooldown restarts from now — the
   ledger does not record how far into the quarantine the crash fell,
   so the conservative choice is a full window. *)
let force_open t backend =
  let e = entry t backend in
  e.st <- Open;
  e.probing <- false;
  e.open_until <- t.clock + e.cooldown_cur;
  Obs.Metrics.incr Obs.Metrics.default "breaker.restored";
  set_open_gauge t backend 1.

let record outcome t backend =
  t.clock <- t.clock + 1;
  let e = entry t backend in
  refresh t backend e;
  e.outcomes <- take t.config.window (outcome :: e.outcomes);
  match e.st, outcome with
  | Half_open, true ->
    (* probe succeeded: full pardon *)
    e.st <- Closed;
    e.probing <- false;
    e.outcomes <- [ true ];
    e.cooldown_cur <- t.config.cooldown;
    Obs.Metrics.incr Obs.Metrics.default "breaker.reclosed"
  | Half_open, false ->
    (* probe failed: back to quarantine, twice as long *)
    e.cooldown_cur <- e.cooldown_cur * 2;
    trip t backend e
  | Closed, false ->
    let failures =
      List.length (List.filter (fun ok -> not ok) e.outcomes)
    in
    if failures >= t.config.threshold then trip t backend e
  | Closed, true | Open, _ -> ()

let record_success = record true

let record_failure = record false

let state t backend =
  match Hashtbl.find_opt t.entries backend with
  | None -> Closed
  | Some e ->
    refresh t backend e;
    e.st

let quarantined t backend = state t backend = Open

(* Admission decision for one backend. Closed admits; Open rejects;
   Half_open admits exactly ONE caller per window — the first claims
   the probe slot, concurrent callers (e.g. two submissions co-admitted
   into the same tenant scope before either outcome lands) are held
   back until the probe reports or its claim expires. Without the
   claim, every concurrent submission would be admitted "as the probe"
   and a still-broken engine would eat them all at once. *)
let probe_claim t backend e =
  refresh t backend e;
  match e.st with
  | Closed -> true
  | Open -> false
  | Half_open ->
    if e.probing then begin
      Obs.Metrics.incr Obs.Metrics.default "breaker.probe_contended";
      false
    end
    else begin
      e.probing <- true;
      e.probe_until <- t.clock + t.config.cooldown;
      true
    end

let filter t backends =
  List.filter
    (fun b ->
       match Hashtbl.find_opt t.entries b with
       | None -> true
       | Some e -> probe_claim t b e)
    backends

let filter_candidates t backends =
  match filter t backends with
  | [] -> backends
  | kept -> kept

let states t =
  Hashtbl.fold (fun b e acc -> (b, e) :: acc) t.entries []
  |> List.sort (fun (a, _) (b, _) -> Backend.compare a b)
  |> List.map (fun (b, e) ->
       refresh t b e;
       (b, e.st))

let pp ppf t =
  Format.fprintf ppf
    "circuit breaker: threshold %d / window %d, cooldown %d ticks \
     (clock %d)@."
    t.config.threshold t.config.window t.config.cooldown t.clock;
  let all = states t in
  if all = [] then Format.fprintf ppf "  (no outcomes recorded)@."
  else
    List.iter
      (fun (b, st) ->
         let e = Hashtbl.find t.entries b in
         let failures =
           List.length (List.filter (fun ok -> not ok) e.outcomes)
         in
         Format.fprintf ppf
           "  %-12s %-9s %d/%d recent failures, %d trip%s%s@."
           (Backend.name b) (state_name st) failures
           (List.length e.outcomes) e.trips
           (if e.trips = 1 then "" else "s")
           (if st = Open then
              Printf.sprintf ", re-probe at tick %d" e.open_until
            else ""))
      all
