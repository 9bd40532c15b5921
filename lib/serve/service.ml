(* The persistent serving layer (ROADMAP "always-on service").

   Everything below the admission queue is the existing one-shot
   pipeline — plan (now through the plan cache) and execute_plan (now
   under the service's shared store and the tenant's breaker scope) —
   so a served submission produces byte-identical outputs to a one-shot
   run of the same graph.

   Like the cluster itself, time is simulated: the service runs a
   discrete-event loop over *virtual* seconds. Arrivals carry virtual
   timestamps; an admitted workflow executes immediately in real time
   but occupies the virtual interval [admit, admit + service], where
   service = its simulated makespan plus the *wall-clock* seconds the
   planner actually spent (planning is the one real computation here,
   which is exactly what the plan cache amortizes). Workflows whose
   virtual intervals overlap are co-admitted — that window bounds both
   the concurrency cap and the shared-scan scope. *)

let log_src = Logs.Src.create "musketeer.serve" ~doc:"serving layer"

module Log = (val Logs.src_log log_src)

type submission = {
  tenant : string;
  workflow : string;
  graph : Ir.Dag.t;
  arrival_s : float;
  slo_s : float option;
}

type status =
  | Served
  | Shed of string  (** dropped by the shedding policy, never executed *)
  | Expired         (** SLO passed while queued; cancelled pre-admission *)

type outcome = {
  sub : submission;
  status : status;
  admit_s : float;
  finish_s : float;
  queue_delay_s : float;
  latency_s : float;
  makespan_s : float;
  planning_s : float;  (** wall-clock seconds spent planning *)
  cache : string;      (** "hit" | "miss" | "invalidated" *)
  subplan_hits : int;  (** prefixes attached (share or cache) *)
  subplan_paid : int;  (** prefixes this submission materialized *)
  subplan_attached_mb : float;
  outputs : (string * Relation.Table.t) list;
  error : string option;
}

type shed_policy =
  | Reject_newest       (** drop the arriving submission *)
  | Shed_lowest_weight  (** drop the newest queued item of the
                            lowest-weight tenant with a backlog *)
  | Oldest_first        (** drop the globally oldest queued item *)

let shed_policy_name = function
  | Reject_newest -> "reject-newest"
  | Shed_lowest_weight -> "shed-lowest-weight"
  | Oldest_first -> "oldest-first"

let shed_policy_of_string = function
  | "reject-newest" -> Some Reject_newest
  | "shed-lowest-weight" -> Some Shed_lowest_weight
  | "oldest-first" -> Some Oldest_first
  | _ -> None

type config = {
  concurrency : int;
  cache_capacity : int;
  subresult_cache_mb : float;
  weights : (string * float) list;  (** tenant → WFQ weight (default 1) *)
  ledger : string option;           (** append one record per completion *)
  tenant_queue_cap : int;           (** max queued per tenant; 0 = unbounded *)
  global_queue_cap : int;           (** max queued overall; 0 = unbounded *)
  shed_policy : shed_policy;
  pressure_threshold_s : float;
      (** queue-delay EWMA that counts as pressure 1.0; 0. disables the
          pressure signal (degradation ladder and pressure shedding) *)
  default_slo_s : float option;     (** deadline for submissions without one *)
  retry_budget : float;
      (** per-tenant retry token-bucket capacity; negative = unlimited *)
  retry_refill_per_s : float;       (** tokens per virtual second *)
  recovery : Musketeer.Recovery.policy;
  supervision : Musketeer.Supervisor.config;
  inject : Engines.Faults.fault_plan option;
      (** chaos: per-submission fault injection around execution only
          (the plan's seed is re-derived per submission, so a fixed
          seed gives a deterministic fault schedule per trace) *)
  breaker : Engines.Breaker.t option;
      (** each tenant's circuit breaker is a fresh copy of this one *)
}

let default_config =
  { concurrency = 4; cache_capacity = 128; subresult_cache_mb = 0.;
    weights = []; ledger = None;
    tenant_queue_cap = 0; global_queue_cap = 0;
    shed_policy = Reject_newest; pressure_threshold_s = 0.;
    default_slo_s = None; retry_budget = -1.; retry_refill_per_s = 1.;
    recovery = Musketeer.Recovery.none;
    supervision = Musketeer.Supervisor.disabled;
    inject = None; breaker = None }

(* -------- weighted fair queueing (start-time fair queueing) --------

   Each tenant keeps a virtual tag; the head of tenant q has start tag
   max(tag(q), V) with V the virtual-work clock (the start tag of the
   last admission), and the scheduler admits the head with the
   smallest start tag, then sets tag(q) = start + cost/weight. Cost is
   the operator count — known before planning — so a 40-op DAG
   advances its tenant's tag ~13× further than a 3-op lookup and
   cannot starve it. Selecting by *start* tag matters: finish tags tie
   persistently under equal costs (V trails each tenant's tag by
   exactly cost/weight), and a deterministic tie-break would then
   starve one tenant. *)

type tenant_state = {
  t_name : string;
  weight : float;
  queue : submission Queue.t;
  mutable vtag : float;
  mutable tokens : float;     (* retry-budget bucket *)
  mutable tokens_at : float;  (* virtual time of the last refill *)
}

type t = {
  mutable m : Musketeer.t;  (* [restore] re-fits its calibration *)
  hdfs : Engines.Hdfs.t;
  config : config;
  cache : Musketeer.Plan_cache.t;
  store : Engines.Share.t;
  tenants : (string, tenant_state) Hashtbl.t;
  breakers : (string, Engines.Breaker.t) Hashtbl.t;  (* per tenant *)
  mutable vwork : float;  (* WFQ virtual-work clock *)
  mutable now : float;    (* virtual wall clock, monotone across drives *)
  mutable ewma_delay_s : float;  (* queue-delay EWMA — the pressure signal *)
  mutable rung : int;            (* degradation ladder position, 0..3 *)
  mutable seq : int;             (* executions so far; injector reseed *)
}

let create ?(config = default_config) m ~hdfs =
  if config.concurrency < 1 then
    invalid_arg "Serve.Service.create: concurrency < 1";
  {
    m;
    hdfs;
    config;
    cache = Musketeer.Plan_cache.create ~capacity:config.cache_capacity ();
    store = Engines.Share.create ~capacity_mb:config.subresult_cache_mb ();
    tenants = Hashtbl.create 8;
    breakers = Hashtbl.create 8;
    vwork = 0.;
    now = 0.;
    ewma_delay_s = 0.;
    rung = 0;
    seq = 0;
  }

let cache t = t.cache

let store t = t.store

(* a tenant's own breaker, made on first use from the configured one *)
let breaker t tenant =
  Option.map
    (fun template ->
       match Hashtbl.find_opt t.breakers tenant with
       | Some b -> b
       | None ->
         let b = Engines.Breaker.fresh ~tenant template in
         Hashtbl.replace t.breakers tenant b;
         b)
    t.config.breaker

let tenant_state t name =
  match Hashtbl.find_opt t.tenants name with
  | Some ts -> ts
  | None ->
    let weight =
      match List.assoc_opt name t.config.weights with
      | Some w when w > 0. -> w
      | _ -> 1.
    in
    let ts =
      { t_name = name; weight; queue = Queue.create (); vtag = 0.;
        tokens = Float.max 0. t.config.retry_budget; tokens_at = t.now }
    in
    Hashtbl.replace t.tenants name ts;
    ts

(* Overwrite an input relation out-of-band (a client re-uploading
   data): bumps the relation's epoch in the shared store, which drops
   every scan and subplan entry that read the old bytes, and changes
   the input-size fingerprint the plan cache validates against. *)
let put_input t relation ?modeled_mb table =
  Engines.Hdfs.put t.hdfs relation ?modeled_mb table;
  Engines.Share.note_write t.store relation

let cost_of sub = float_of_int (max 1 (Ir.Dag.operator_count sub.graph))

let open_flights t = Engines.Share.open_flights t.store

let deadline_of t sub =
  match sub.slo_s, t.config.default_slo_s with
  | Some s, _ | None, Some s -> Some (sub.arrival_s +. s)
  | None, None -> None

let slo_of t sub =
  match sub.slo_s, t.config.default_slo_s with
  | Some s, _ | None, Some s -> s
  | None, None -> 0.

(* -------- pressure signal & degradation ladder --------

   Pressure is the queue-delay EWMA (alpha 0.3) in units of the
   configured threshold. The EWMA samples at every admission AND at
   every arrival (using the oldest queued submission's current wait, 0
   when the queue just formed): without the arrival-time sample the
   signal would freeze at the moment shedding starts — pressure >=
   shed keeps every arrival out of admission, admissions are the only
   other sample point, and the service latches in shedding forever
   even when traffic calms. The ladder sheds optional work before it
   sheds requests, and climbs back down on its own as the EWMA decays:

     P >= 1.0  rung 1: disable straggler speculation
     P >= 1.5  rung 2: stop paying new subplan materializations
               (attaching to existing ones stays free, so stays on)
     P >= 2.0  rung 3: bypass the co-admission window entirely (no
               flight, no shared accounting)
     P >= 3.0  shed arriving requests per the shedding policy *)

let pressure t =
  if t.config.pressure_threshold_s <= 0. then 0.
  else t.ewma_delay_s /. t.config.pressure_threshold_s

let shed_pressure = 3.0

let rung_of p =
  if p >= 2.0 then 3 else if p >= 1.5 then 2 else if p >= 1.0 then 1 else 0

let note_queue_delay t delay_s =
  t.ewma_delay_s <- (0.3 *. delay_s) +. (0.7 *. t.ewma_delay_s);
  let p = pressure t in
  Obs.Metrics.set_gauge Obs.Metrics.default "serve.pressure" p;
  let r = rung_of p in
  if r <> t.rung then begin
    Log.debug (fun m ->
        m "degradation rung %d -> %d (pressure %.2f)" t.rung r p);
    Obs.Metrics.incr Obs.Metrics.default
      (Printf.sprintf "serve.degrade.to_rung%d" r);
    t.rung <- r;
    Obs.Metrics.set_gauge Obs.Metrics.default "serve.degrade.rung"
      (float_of_int r)
  end

(* Current wait of the oldest queued submission across tenants — the
   arrival-time pressure sample. 0 when every queue is empty (or holds
   only the arrival that was just enqueued). *)
let oldest_queued_wait t =
  Hashtbl.fold
    (fun _ ts acc ->
       if Queue.is_empty ts.queue then acc
       else Float.max acc (t.now -. (Queue.peek ts.queue).arrival_s))
    t.tenants 0.

(* -------- per-tenant retry token bucket --------

   Retries amplify overload: a failing engine under injection can turn
   one submission into [max_retries]+1 executions. The bucket refills
   with virtual time and every retry actually spent drains it, so a
   tenant whose submissions keep failing degrades to fail-fast instead
   of storming the cluster. *)

let refill_tokens t ts =
  if t.config.retry_budget >= 0. then begin
    ts.tokens <-
      Float.min t.config.retry_budget
        (ts.tokens
         +. ((t.now -. ts.tokens_at) *. t.config.retry_refill_per_s));
    ts.tokens_at <- t.now
  end

let effective_recovery t ts =
  let policy = t.config.recovery in
  if t.config.retry_budget < 0. then policy
  else begin
    refill_tokens t ts;
    let allowed = min policy.Musketeer.Recovery.max_retries
        (int_of_float ts.tokens)
    in
    if allowed < policy.Musketeer.Recovery.max_retries then
      Obs.Metrics.incr Obs.Metrics.default "serve.retry_budget.capped";
    { policy with Musketeer.Recovery.max_retries = allowed }
  end

let charge_retries ts used =
  if used > 0 then ts.tokens <- Float.max 0. (ts.tokens -. float_of_int used)

(* -------- common-subplan sharing -------- *)

type subplan_prep = {
  sp_hits : int;
  sp_paid : int;
  sp_attached_mb : float;
  sp_prefix_makespan_s : float;  (* simulated makespan of paid prefixes *)
  sp_planning_s : float;         (* wall planning spent on paid prefixes *)
}

let no_subplans =
  { sp_hits = 0; sp_paid = 0; sp_attached_mb = 0.;
    sp_prefix_makespan_s = 0.; sp_planning_s = 0. }

(* Multi-query optimization (docs/serving.md): before planning the
   submission, probe every eligible cut point of its DAG — topmost
   first — against the shared store. An attached prefix is pre-put
   into this submission's HDFS snapshot scope under its synthetic
   "__subplan:<hash>" relation and the DAG rewritten (Subplan.cut) so
   the ordinary estimator/partitioner price it at one HDFS read + zero
   compute. When nothing matches but the modeled recompute exceeds the
   modeled read (Cost.subplan_cut), this submission becomes the payer:
   the prefix cone runs as a stand-alone workflow (through the same
   plan cache, under this submission's flight) and the materialization
   is published to the store before the rewritten suffix executes. Any
   payer failure falls back to leaving the cone in place — sharing can
   only be skipped, never wrong.

   Must run inside the submission's snapshot/flight scopes.

   [recovery] applies to payer prefix executions (they run under the
   same injection bracket as the main execution, so a faulted payer
   retries on the same budget, and [retries] counts what they spend);
   at degradation rung >= 2 paying is disabled — attaching to
   already-materialized prefixes stays free and therefore allowed. *)
let prepare_subplans t ~recovery ~breaker ~inject ~retries sub =
  let g = sub.graph in
  let cands =
    if t.config.subresult_cache_mb <= 0. then []
    else Musketeer.Subplan.candidates g
  in
  let est =
    lazy (Musketeer.estimator t.m ~workflow:sub.workflow ~hdfs:t.hdfs g)
  in
  let covered = Hashtbl.create 8 and cuts = ref [] in
  let prep = ref no_subplans in
  let attach (c : Musketeer.Subplan.candidate) table mb p =
    let rel = Musketeer.Subplan.relation ~hash:c.sc_hash in
    Engines.Hdfs.put t.hdfs rel ~modeled_mb:mb table;
    cuts := (c.sc_id, rel) :: !cuts;
    List.iter (fun id -> Hashtbl.replace covered id ()) (Ir.Dag.cone g c.sc_id);
    prep := p
  in
  (* the prefix's output table, its modeled MB and the prefix run's
     makespan, or [None] when the payer could not produce it *)
  let pay (c : Musketeer.Subplan.candidate) =
    (* canonical workflow name: co-hashing submissions share one
       plan-cache entry for the prefix regardless of tenant *)
    let wf = "subplan:" ^ c.sc_hash in
    let prefix = Musketeer.Subplan.extract g c.sc_id in
    let t0 = Unix.gettimeofday () in
    let planned =
      Musketeer.plan ~cache:t.cache ?breaker t.m ~workflow:wf ~hdfs:t.hdfs
        prefix
    in
    prep :=
      { !prep with
        sp_planning_s = !prep.sp_planning_s +. Unix.gettimeofday () -. t0 };
    let out_rel = (Ir.Dag.node g c.sc_id).Ir.Operator.output in
    Option.bind planned @@ fun (pplan, pg) ->
    let run =
      Musketeer.execute_plan_spent ~record_history:false ~recovery ?breaker
        ?inject ~sharing:t.store t.m ~workflow:wf ~hdfs:t.hdfs ~graph:pg pplan
    in
    retries := !retries + run.Musketeer.Recovery.retries;
    match run.Musketeer.Recovery.result with
    | Ok r when Engines.Hdfs.mem t.hdfs out_rel ->
      (* the prefix run materialized its output to HDFS, so the
         modeled size the estimator propagated is there *)
      List.assoc_opt out_rel r.Musketeer.Executor.outputs
      |> Option.map (fun table ->
           (table, Engines.Hdfs.modeled_mb t.hdfs out_rel,
            r.Musketeer.Executor.makespan_s))
    | Ok _ | Error _ -> None  (* the suffix recomputes the cone in place *)
  in
  List.iter
    (fun (c : Musketeer.Subplan.candidate) ->
       if not (Hashtbl.mem covered c.sc_id) then
         match Engines.Share.find t.store ~key:c.sc_hash with
         | Some (table, mb) ->
           attach c table mb
             { !prep with sp_hits = !prep.sp_hits + 1;
                          sp_attached_mb = !prep.sp_attached_mb +. mb }
         | None ->
           let read_mb, saved_mb =
             Musketeer.Cost.subplan_cut ~est:(Lazy.force est) c.sc_id
           in
           if saved_mb <= read_mb then ()
           else if t.rung >= 2 then
             (* rung 2: materializing is optional work — shed it; the
                cone stays in place and the suffix recomputes it,
                byte-identically *)
             Obs.Metrics.incr Obs.Metrics.default "serve.degrade.no_materialize"
           else
             Option.iter
               (fun (table, mb, makespan_s) ->
                  Engines.Share.publish t.store ~key:c.sc_hash
                    ~inputs:c.sc_inputs ~mb table;
                  attach c table mb
                    { !prep with
                      sp_paid = !prep.sp_paid + 1;
                      sp_prefix_makespan_s =
                        !prep.sp_prefix_makespan_s +. makespan_s })
               (pay c))
    cands;
  ((if !cuts = [] then g else Musketeer.Subplan.cut g !cuts), !prep)

let input_relations g =
  Ir.Dag.sources g
  |> List.filter_map (fun (n : Ir.Operator.node) ->
       match n.Ir.Operator.kind with
       | Ir.Operator.Input { relation } -> Some relation
       | _ -> None)
  |> List.sort_uniq String.compare

(* engines open in a tenant's breaker *)
let open_breakers = function
  | None -> []
  | Some breaker ->
    Engines.Breaker.states breaker
    |> List.filter_map (fun (b, st) ->
         if st = Engines.Breaker.Open then Some (Engines.Backend.name b)
         else None)

(* one submission, executed at its (virtual) admission instant;
   returns the outcome plus the expiry thunk ending its store flight at
   its virtual finish. A failed execution expires its flight
   immediately (and returns a no-op thunk): co-admitted attachers must
   never ride on a payer whose materialization never landed. *)
let execute t ts sub ~admit_s =
  Obs.Trace.with_span
    ~attrs:[ ("tenant", Obs.Trace.String sub.tenant);
             ("workflow", Obs.Trace.String sub.workflow) ]
    "serve.submit"
  @@ fun () ->
  let breaker = breaker t sub.tenant in
  let since = Obs.Ledger.mark Obs.Metrics.default in
  let recovery = effective_recovery t ts in
  let supervision =
    (* rung 1: speculation duplicates straggling jobs — optional work,
       shed first *)
    if t.rung >= 1 && t.config.supervision.Musketeer.Supervisor.speculate
    then begin
      Obs.Metrics.incr Obs.Metrics.default "serve.degrade.no_speculation";
      { t.config.supervision with Musketeer.Supervisor.speculate = false }
    end
    else t.config.supervision
  in
  (* rung 3: bypass the co-admission window — no flights, no shared
     accounting, every scan paid. The submission computes everything
     itself, so bytes cannot change. *)
  let coadmit = t.rung < 3 in
  if not coadmit then
    Obs.Metrics.incr Obs.Metrics.default "serve.degrade.no_coadmission";
  (* the flight opens before planning: the subplan rewrite must see
     co-admitted materializations, and a payer executes its prefix
     under this submission's flight. Each submission still runs
     against the service's base HDFS state — snapshot/restore isolates
     outputs, intermediates and attached prefixes alike. *)
  let pre = Engines.Hdfs.snapshot t.hdfs in
  let flight =
    if coadmit then Some (Engines.Share.begin_flight t.store) else None
  in
  let expire () = Option.iter (Engines.Share.end_flight t.store) flight in
  let in_flight f =
    match flight with
    | Some id -> Engines.Share.with_flight t.store id f
    | None -> f ()
  in
  (* chaos for the executions only (planning and the identity
     baseline stay clean); reseeding per submission keeps a fixed
     --seed deterministic for the whole trace while decorrelating the
     per-submission fault schedules *)
  let inject =
    Option.map
      (fun plan ->
         t.seq <- t.seq + 1;
         Engines.Injector.create
           { plan with Engines.Faults.seed = plan.Engines.Faults.seed + t.seq })
      t.config.inject
  in
  (* the retries this submission's executions spent, payer prefixes
     included: what its tenant's bucket is charged *)
  let retries = ref 0 in
  let out =
    Fun.protect
      ~finally:(fun () -> Engines.Hdfs.restore t.hdfs ~from:pre)
      (fun () ->
         in_flight @@ fun () ->
         let graph, sp =
           if coadmit then
             prepare_subplans t ~recovery ~breaker ~inject ~retries sub
           else (sub.graph, no_subplans)
         in
         let s0 = Musketeer.Plan_cache.stats t.cache in
         let t0 = Unix.gettimeofday () in
         let planned =
           Musketeer.plan ~cache:t.cache ?breaker t.m ~workflow:sub.workflow
             ~hdfs:t.hdfs graph
         in
         let planning_s =
           Unix.gettimeofday () -. t0 +. sp.sp_planning_s
         in
         let s1 = Musketeer.Plan_cache.stats t.cache in
         let cache =
           let open Musketeer.Plan_cache in
           if s1.hits > s0.hits then "hit"
           else if s1.invalidations > s0.invalidations then "invalidated"
           else "miss"
         in
         let finish ~makespan_s ~outputs ~partition ~error =
           let makespan_s = makespan_s +. sp.sp_prefix_makespan_s in
           let queue_delay_s = admit_s -. sub.arrival_s in
           (* virtual seconds only: planning wall time is reported in
              [planning_s], never added to the modeled clock *)
           let finish_s = admit_s +. makespan_s in
           let latency_s = finish_s -. sub.arrival_s in
           Obs.Metrics.observe Obs.Metrics.default
             ("serve.queue_delay_s." ^ sub.tenant) queue_delay_s;
           Obs.Metrics.observe Obs.Metrics.default "serve.latency_s"
             latency_s;
           Obs.Metrics.incr Obs.Metrics.default "serve.completed";
           (match error with
            | Some _ -> Obs.Metrics.incr Obs.Metrics.default "serve.errors"
            | None -> ());
           let slo_s = slo_of t sub in
           let slo_met =
             match deadline_of t sub with
             | None -> true
             | Some d -> finish_s <= d +. 1e-9
           in
           if not slo_met then
             Obs.Metrics.incr Obs.Metrics.default "serve.slo_missed";
           (match t.config.ledger with
            | None -> ()
            | Some filename ->
              let record =
                Obs.Ledger.snapshot ~since
                  ~serve:
                    { Obs.Ledger.tenant = sub.tenant; queue_delay_s;
                      latency_s; cache; subplan_hits = sp.sp_hits;
                      subplan_attached_mb = sp.sp_attached_mb;
                      shed = None; slo_s; slo_met;
                      breaker_open = open_breakers breaker;
                      epochs =
                        List.map
                          (fun rel ->
                             (rel, Engines.Share.epoch t.store rel))
                          (input_relations sub.graph) }
                  ~workflow:sub.workflow
                  ~ir_hash:(Ir.Dag.canonical_hash sub.graph) ~partition
                  ~makespan_s ()
              in
              Obs.Ledger.append ~filename record);
           { sub; status = Served; admit_s; finish_s; queue_delay_s;
             latency_s; makespan_s; planning_s; cache;
             subplan_hits = sp.sp_hits; subplan_paid = sp.sp_paid;
             subplan_attached_mb = sp.sp_attached_mb; outputs; error }
         in
         match planned with
         | None ->
           finish ~makespan_s:0. ~outputs:[] ~partition:[]
             ~error:
               (Some "no backend combination can express this workflow")
         | Some (plan, graph) ->
           let partition =
             List.map
               (fun (b, ids) -> (Engines.Backend.name b, ids))
               plan.Musketeer.Partitioner.jobs
           in
           let sharing = if coadmit then Some t.store else None in
           let run =
             Musketeer.execute_plan_spent ~record_history:false ~recovery
               ~supervision ?breaker ?inject ?sharing t.m ~workflow:sub.workflow
               ~hdfs:t.hdfs ~graph plan
           in
           retries := !retries + run.Musketeer.Recovery.retries;
           match run.Musketeer.Recovery.result with
           | Ok r ->
             finish ~makespan_s:r.Musketeer.Executor.makespan_s
               ~outputs:r.Musketeer.Executor.outputs ~partition ~error:None
           | Error e ->
             finish ~makespan_s:0. ~outputs:[] ~partition
               ~error:(Some (Engines.Report.error_to_string e)))
  in
  charge_retries ts !retries;
  if out.error <> None then begin
    (* flight-leak fix: a failed payer's leases must end NOW, not at
       its virtual finish — co-admitted attachers in the same burst
       would otherwise claim a materialization that never landed *)
    expire ();
    (out, fun () -> ())
  end
  else (out, expire)

(* -------- load shedding -------- *)

let queued_total t =
  Hashtbl.fold (fun _ ts acc -> acc + Queue.length ts.queue) t.tenants 0

(* remove and return the newest (last-queued) item of [q] *)
let drop_newest q =
  match List.rev (List.of_seq (Queue.to_seq q)) with
  | [] -> None
  | last :: rest_rev ->
    Queue.clear q;
    List.iter (fun s -> Queue.add s q) (List.rev rest_rev);
    Some last

(* pick the shed victim once the bound or the pressure signal tripped;
   the arriving submission is already enqueued, so every policy is
   "remove one queued item" and the caps are restored invariantly *)
let shed_victim t =
  let nonempty =
    Hashtbl.fold
      (fun _ ts acc -> if Queue.is_empty ts.queue then acc else ts :: acc)
      t.tenants []
  in
  match t.config.shed_policy, nonempty with
  | _, [] -> None
  | Reject_newest, _ ->
    (* the globally newest queued item — under enqueue-then-shed that
       is the arrival itself *)
    let newest =
      List.fold_left
        (fun best ts ->
           let last =
             Queue.fold (fun _ s -> Some s) None ts.queue
           in
           match best, last with
           | None, l -> Option.map (fun s -> (ts, s)) l
           | b, None -> b
           | Some (_, bs), Some s when s.arrival_s >= bs.arrival_s ->
             Some (ts, s)
           | b, _ -> b)
        None nonempty
    in
    Option.bind newest (fun (ts, _) -> drop_newest ts.queue)
  | Shed_lowest_weight, _ ->
    let victim_tenant =
      List.fold_left
        (fun best ts ->
           match best with
           | Some b
             when b.weight < ts.weight
                  || (b.weight = ts.weight
                      && String.compare b.t_name ts.t_name <= 0) ->
             best
           | _ -> Some ts)
        None nonempty
    in
    Option.bind victim_tenant (fun ts -> drop_newest ts.queue)
  | Oldest_first, _ ->
    let victim_tenant =
      List.fold_left
        (fun best ts ->
           let head = Queue.peek_opt ts.queue in
           match best, head with
           | None, Some _ -> Some ts
           | Some b, Some h
             when h.arrival_s
                  < (match Queue.peek_opt b.queue with
                     | Some bh -> bh.arrival_s
                     | None -> infinity) ->
             Some ts
           | b, _ -> b)
        None nonempty
    in
    Option.map (fun ts -> Queue.pop ts.queue) victim_tenant

let over_caps t ts =
  (t.config.tenant_queue_cap > 0
   && Queue.length ts.queue > t.config.tenant_queue_cap)
  || (t.config.global_queue_cap > 0
      && queued_total t > t.config.global_queue_cap)

(* outcome for a submission dropped without executing (shed or
   SLO-expired); also appended to the ledger so a restarted service —
   and the report subcommand — see the full admission history *)
let drop_outcome t sub ~status ~reason =
  let wait = Float.max 0. (t.now -. sub.arrival_s) in
  (match status with
   | Shed _ ->
     Obs.Metrics.incr Obs.Metrics.default "serve.shed";
     Obs.Metrics.incr Obs.Metrics.default ("serve.shed." ^ reason)
   | Expired -> Obs.Metrics.incr Obs.Metrics.default "serve.expired"
   | Served -> ());
  Obs.Metrics.observe Obs.Metrics.default
    ("serve.shed_wait_s." ^ sub.tenant) wait;
  let cache = match status with Expired -> "expired" | _ -> "shed" in
  (match t.config.ledger with
   | None -> ()
   | Some filename ->
     let record =
       Obs.Ledger.snapshot ~since:(Obs.Ledger.mark Obs.Metrics.default)
         ~serve:
           { Obs.Ledger.tenant = sub.tenant; queue_delay_s = wait;
             latency_s = wait; cache; subplan_hits = 0;
             subplan_attached_mb = 0.; shed = Some reason;
             slo_s = slo_of t sub; slo_met = false; breaker_open = [];
             epochs = [] }
         ~workflow:sub.workflow
         ~ir_hash:(Ir.Dag.canonical_hash sub.graph) ~partition:[]
         ~makespan_s:0. ()
     in
     Obs.Ledger.append ~filename record);
  { sub; status; admit_s = t.now; finish_s = t.now; queue_delay_s = wait;
    latency_s = wait; makespan_s = 0.; planning_s = 0.; cache;
    subplan_hits = 0; subplan_paid = 0; subplan_attached_mb = 0.;
    outputs = []; error = None }

(* Discrete-event loop: admit while slots are free, else advance the
   virtual clock to the next arrival or finish. Can be called
   repeatedly on one service; the virtual clock, WFQ tags, plan cache
   and the shared store persist across calls. *)
let drive t subs =
  let pending =
    ref
      (List.stable_sort
         (fun a b -> Float.compare a.arrival_s b.arrival_s)
         subs)
  in
  (match !pending with
   | s :: _ -> t.now <- Float.max t.now s.arrival_s
   | [] -> ());
  let inflight = ref [] in (* (finish_s, flight-expiry thunk) *)
  let outcomes = ref [] in
  let expire () =
    let finished, still =
      List.partition (fun (f, _) -> f <= t.now +. 1e-9) !inflight
    in
    List.iter (fun (_, expire_flights) -> expire_flights ()) finished;
    inflight := still
  in
  let arrivals () =
    let ready, later =
      List.partition (fun s -> s.arrival_s <= t.now +. 1e-9) !pending
    in
    List.iter
      (fun sub ->
         Obs.Metrics.incr Obs.Metrics.default "serve.submitted";
         let ts = tenant_state t sub.tenant in
         Queue.add sub ts.queue;
         note_queue_delay t (oldest_queued_wait t);
         (* bounded admission: enqueue, then shed one victim per the
            policy when a queue bound or the pressure signal tripped —
            so the caps hold invariantly after every arrival *)
         if over_caps t ts || pressure t >= shed_pressure then begin
           let reason = shed_policy_name t.config.shed_policy in
           match shed_victim t with
           | Some victim ->
             Log.debug (fun m ->
                 m "shed %s/%s at %.2fs (%s)" victim.tenant victim.workflow
                   t.now reason);
             outcomes :=
               drop_outcome t victim ~status:(Shed reason) ~reason
               :: !outcomes
           | None -> ()
         end)
      ready;
    pending := later
  in
  let pick_tenant () =
    Hashtbl.fold
      (fun _ ts best ->
         if Queue.is_empty ts.queue then best
         else
           let start = Float.max ts.vtag t.vwork in
           match best with
           | Some (_, best_start, best_name)
             when best_start < start
                  || (best_start = start
                      && String.compare best_name ts.t_name <= 0) ->
             best
           | _ -> Some (ts, start, ts.t_name))
      t.tenants None
  in
  let admit () =
    let continue = ref true in
    while !continue && List.length !inflight < t.config.concurrency do
      match pick_tenant () with
      | None -> continue := false
      | Some (ts, start, _) ->
        let sub = Queue.pop ts.queue in
        (match deadline_of t sub with
         | Some d when t.now > d +. 1e-9 ->
           (* the SLO passed while queued: cancel before admission —
              never after execution starts, so a submission either runs
              to (byte-identical) completion or not at all. No slot is
              consumed and the tenant's vtag does not advance. *)
           outcomes :=
             drop_outcome t sub ~status:Expired ~reason:"slo-expired"
             :: !outcomes
         | _ ->
           t.vwork <- Float.max start t.vwork;
           ts.vtag <- start +. (cost_of sub /. ts.weight);
           note_queue_delay t (t.now -. sub.arrival_s);
           Log.debug (fun m ->
               m "admit %s/%s at %.2fs (queued %.2fs)" sub.tenant
                 sub.workflow t.now (t.now -. sub.arrival_s));
           let out, expire_flights = execute t ts sub ~admit_s:t.now in
           inflight := (out.finish_s, expire_flights) :: !inflight;
           outcomes := out :: !outcomes)
    done
  in
  let next_event () =
    let arrival =
      match !pending with [] -> None | s :: _ -> Some s.arrival_s
    in
    let fin =
      List.fold_left
        (fun acc (f, _) ->
           match acc with Some a when a <= f -> acc | _ -> Some f)
        None !inflight
    in
    match arrival, fin with
    | None, None -> None
    | Some e, None | None, Some e -> Some e
    | Some a, Some f -> Some (Float.min a f)
  in
  let running = ref true in
  while !running do
    expire ();
    arrivals ();
    admit ();
    match next_event () with
    | Some ts -> t.now <- Float.max t.now ts
    | None -> running := false
  done;
  List.rev !outcomes

let run ?(config = default_config) m ~hdfs subs =
  let t = create ~config m ~hdfs in
  let outcomes = drive t subs in
  (outcomes, t)

(* -------- crash-restart recovery --------

   The ledger and HDFS are the decoupled execution state; everything
   else (plan cache, breaker states, store epochs, calibration)
   is warm state a crash loses. [restore] replays it from the ledger a
   fresh service was pointed at:

     - calibration: re-fit cost-model factors from observed history
       (must run before warming — factors are part of the plan-cache
       environment fingerprint)
     - store epochs: raised to the per-relation maxima recorded
       in serve records, so entries can never be paid against bytes
       the previous incarnation already invalidated
     - breakers (when the service has them): the latest record per
       tenant lists the engines open in that tenant's breaker at
       completion; they are re-opened for a full cooldown
       ([Breaker.force_open]) — conservative, since the ledger does not
       record how far into the quarantine the crash fell
     - plan cache: every distinct workflow in the ledger that the mix
       still knows is re-planned once, in first-appearance order
       (deterministic), so steady-state traffic resumes at hit rate
       ~1 immediately *)

type restore_stats = {
  r_records : int;    (** ledger records replayed *)
  r_calibrated : int; (** engines with re-fitted calibration factors *)
  r_warmed : int;     (** workflows re-planned into the plan cache *)
  r_breakers : int;   (** tenant×engine breakers re-opened *)
  r_epochs : int;     (** relation epochs raised *)
}

let restore ?(calibrate = true) t ~mix records =
  let serves =
    List.filter_map
      (fun (r : Obs.Ledger.record) ->
         Option.map (fun s -> (r, s)) r.Obs.Ledger.serve)
      records
  in
  let factors =
    if calibrate then Musketeer.Calibrate.of_ledger records else []
  in
  t.m <- Musketeer.with_calibration t.m factors;
  (* epochs before warming: input sizes enter the fingerprint via HDFS,
     epochs via the store the next submissions will claim from *)
  let raised = Hashtbl.create 8 in
  List.iter
    (fun (_, (s : Obs.Ledger.serve_info)) ->
       List.iter
         (fun (rel, e) ->
            if e > Engines.Share.epoch t.store rel then begin
              Engines.Share.set_epoch t.store rel e;
              Hashtbl.replace raised rel ()
            end)
         s.Obs.Ledger.epochs)
    serves;
  (* breakers: the latest record per tenant wins *)
  let latest = Hashtbl.create 8 in
  List.iter
    (fun (_, (s : Obs.Ledger.serve_info)) ->
       Hashtbl.replace latest s.Obs.Ledger.tenant
         s.Obs.Ledger.breaker_open)
    serves;
  let r_breakers = ref 0 in
  Hashtbl.iter
    (fun tenant open_engines ->
       Option.iter
         (fun breaker ->
            List.iter
              (fun name ->
                 match Engines.Backend.of_string name with
                 | Some b ->
                   Engines.Breaker.force_open breaker b;
                   incr r_breakers
                 | None -> ())
              open_engines)
         (breaker t tenant))
    latest;
  (* plan-cache warm: executed records only (a shed carries no plan) *)
  let warmed = Hashtbl.create 8 in
  let r_warmed = ref 0 in
  List.iter
    (fun ((r : Obs.Ledger.record), (s : Obs.Ledger.serve_info)) ->
       let wf = r.Obs.Ledger.workflow in
       if s.Obs.Ledger.shed = None && not (Hashtbl.mem warmed wf) then begin
         Hashtbl.replace warmed wf ();
         match List.assoc_opt wf mix with
         | None -> ()
         | Some graph ->
           (match
              Musketeer.plan ~cache:t.cache t.m ~workflow:wf ~hdfs:t.hdfs
                graph
            with
            | Some _ -> incr r_warmed
            | None -> ())
       end)
    serves;
  { r_records = List.length records;
    r_calibrated = List.length factors;
    r_warmed = !r_warmed;
    r_breakers = !r_breakers;
    r_epochs = Hashtbl.length raised }

let pp_restore_stats ppf s =
  Format.fprintf ppf
    "restored from %d ledger records: %d plans re-warmed, %d engines \
     re-calibrated, %d breakers re-opened, %d epochs replayed"
    s.r_records s.r_warmed s.r_calibrated s.r_breakers s.r_epochs

(* -------- summarizing -------- *)

type tenant_summary = {
  st_tenant : string;
  st_submitted : int;
  st_completed : int;
  st_errors : int;
  st_shed : int;
  st_expired : int;
  st_queue_p50_s : float;
  st_queue_p99_s : float;
  st_latency_p99_s : float;
}

type summary = {
  submitted : int;
  completed : int;
  errors : int;
  shed : int;                  (** dropped by the shedding policy *)
  expired : int;               (** SLO-cancelled before admission *)
  slo_met : int;               (** completed within their deadline *)
  goodput_wps : float;         (** completed-in-SLO per virtual second *)
  duration_s : float;          (** virtual span of the whole run *)
  throughput_wps : float;
  latency_p50_s : float;
  latency_p99_s : float;
  cache_stats : Musketeer.Plan_cache.stats;
  cache_hit_rate : float;
  plan_cold_s : float;         (** mean wall planning time on misses *)
  plan_warm_s : float;         (** mean wall planning time on hits *)
  scan_saved_mb : float;
  scan_paid : (string * int) list;  (** paid HDFS fetches per relation *)
  subplan_hits : int;               (** prefixes attached across the run *)
  subplan_paid : int;               (** prefixes materialized *)
  subplan_attached_mb : float;
  subresult : Engines.Share.stats;
  tenants : tenant_summary list;
}

(* nearest-rank percentile; 0 on empty *)
let percentile q xs =
  match List.sort Float.compare xs with
  | [] -> 0.
  | sorted ->
    let n = List.length sorted in
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    List.nth sorted (max 0 (min (n - 1) (rank - 1)))

let summarize (t : t) outcomes =
  let submitted = List.length outcomes in
  let served = List.filter (fun o -> o.status = Served) outcomes in
  let shed =
    List.length
      (List.filter
         (fun o -> match o.status with Shed _ -> true | _ -> false)
         outcomes)
  in
  let expired =
    List.length (List.filter (fun o -> o.status = Expired) outcomes)
  in
  let errors =
    List.length (List.filter (fun o -> o.error <> None) served)
  in
  let completed = List.length served - errors in
  let slo_met =
    List.length
      (List.filter
         (fun o ->
            o.error = None
            &&
            match deadline_of t o.sub with
            | None -> true
            | Some d -> o.finish_s <= d +. 1e-9)
         served)
  in
  let finish =
    List.fold_left (fun acc o -> Float.max acc o.finish_s) 0. outcomes
  in
  let start =
    List.fold_left (fun acc o -> Float.min acc o.sub.arrival_s) infinity
      outcomes
  in
  let duration_s =
    if outcomes = [] then 0. else Float.max (finish -. start) 1e-9
  in
  (* latency/queue percentiles are over executed submissions only —
     sheds never occupied a slot, so mixing their wait times in would
     make shedding look like it slowed the served traffic down *)
  let latencies = List.map (fun o -> o.latency_s) served in
  let mean = function
    | [] -> 0.
    | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
  in
  let tenants =
    Hashtbl.fold (fun name _ acc -> name :: acc) t.tenants []
    |> List.sort String.compare
    |> List.map (fun name ->
         let mine =
           List.filter
             (fun o -> o.sub.tenant = name && o.status = Served)
             outcomes
         in
         let dropped =
           List.filter
             (fun o -> o.sub.tenant = name && o.status <> Served)
             outcomes
         in
         let queues = List.map (fun o -> o.queue_delay_s) mine in
         { st_tenant = name;
           st_submitted = List.length mine + List.length dropped;
           st_completed =
             List.length (List.filter (fun o -> o.error = None) mine);
           st_errors =
             List.length (List.filter (fun o -> o.error <> None) mine);
           st_shed =
             List.length
               (List.filter
                  (fun o ->
                     match o.status with Shed _ -> true | _ -> false)
                  dropped);
           st_expired =
             List.length
               (List.filter (fun o -> o.status = Expired) dropped);
           st_queue_p50_s = percentile 0.50 queues;
           st_queue_p99_s = percentile 0.99 queues;
           st_latency_p99_s =
             percentile 0.99 (List.map (fun o -> o.latency_s) mine) })
  in
  {
    submitted;
    completed;
    errors;
    shed;
    expired;
    slo_met;
    goodput_wps =
      (if duration_s > 0. then float_of_int slo_met /. duration_s else 0.);
    duration_s;
    throughput_wps =
      (if duration_s > 0. then float_of_int completed /. duration_s else 0.);
    latency_p50_s = percentile 0.50 latencies;
    latency_p99_s = percentile 0.99 latencies;
    cache_stats = Musketeer.Plan_cache.stats t.cache;
    cache_hit_rate = Musketeer.Plan_cache.hit_rate t.cache;
    plan_cold_s =
      mean
        (List.filter_map
           (fun (o : outcome) ->
              if o.cache = "hit" then None else Some o.planning_s)
           served);
    plan_warm_s =
      mean
        (List.filter_map
           (fun (o : outcome) ->
              if o.cache = "hit" then Some o.planning_s else None)
           served);
    scan_saved_mb = Engines.Share.saved_mb t.store;
    scan_paid = Engines.Share.paid_all t.store;
    subplan_hits =
      List.fold_left (fun acc (o : outcome) -> acc + o.subplan_hits) 0
        outcomes;
    subplan_paid =
      List.fold_left (fun acc (o : outcome) -> acc + o.subplan_paid) 0
        outcomes;
    subplan_attached_mb =
      List.fold_left
        (fun acc (o : outcome) -> acc +. o.subplan_attached_mb)
        0. outcomes;
    subresult = Engines.Share.stats t.store;
    tenants;
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "served %d submissions (%d ok, %d errors) over %.1f virtual s@."
    s.submitted s.completed s.errors s.duration_s;
  if s.shed > 0 || s.expired > 0 then
    Format.fprintf ppf "  overload      %d shed, %d SLO-expired@." s.shed
      s.expired;
  Format.fprintf ppf "  throughput    %.3f workflows/s (virtual)@."
    s.throughput_wps;
  if s.slo_met < s.completed || s.shed > 0 || s.expired > 0 then
    Format.fprintf ppf
      "  goodput       %.3f in-SLO workflows/s (%d of %d in SLO)@."
      s.goodput_wps s.slo_met s.completed;
  Format.fprintf ppf "  latency       p50 %.2fs  p99 %.2fs@." s.latency_p50_s
    s.latency_p99_s;
  Format.fprintf ppf
    "  plan cache    %.1f%% hits (%d hit / %d miss / %d invalidated)@."
    (100. *. s.cache_hit_rate)
    s.cache_stats.Musketeer.Plan_cache.hits
    s.cache_stats.Musketeer.Plan_cache.misses
    s.cache_stats.Musketeer.Plan_cache.invalidations;
  if s.plan_warm_s > 0. then
    Format.fprintf ppf "  planning      cold %.2fms  warm %.3fms (%.0f×)@."
      (1e3 *. s.plan_cold_s) (1e3 *. s.plan_warm_s)
      (s.plan_cold_s /. Float.max s.plan_warm_s 1e-9);
  if s.scan_saved_mb > 0. then
    Format.fprintf ppf "  shared scans  %.0f MB of reads shared@."
      s.scan_saved_mb;
  if s.subplan_hits > 0 || s.subplan_paid > 0 then
    Format.fprintf ppf
      "  subplans      %d attached (%.0f MB), %d materialized; cache %d \
       entries %.0f MB@."
      s.subplan_hits s.subplan_attached_mb s.subplan_paid
      s.subresult.Engines.Share.entries
      s.subresult.Engines.Share.bytes_mb;
  List.iter
    (fun ts ->
       Format.fprintf ppf
         "  tenant %-10s %3d submitted, queue p50 %.2fs p99 %.2fs, latency p99 \
          %.2fs%s%s@."
         ts.st_tenant ts.st_submitted ts.st_queue_p50_s ts.st_queue_p99_s
         ts.st_latency_p99_s
         (if ts.st_errors > 0 then Printf.sprintf " (%d errors)" ts.st_errors
          else "")
         (if ts.st_shed > 0 || ts.st_expired > 0 then
            Printf.sprintf " (%d shed, %d expired)" ts.st_shed ts.st_expired
          else ""))
    s.tenants
