(* The repository benchmark: three workloads driven through the public
   entry points, every output checked against the reference
   interpreter, one JSON result line on stdout.

     bench.exe oracle --workload W --seed N
       prints the reference digests ("workflow<TAB>output<TAB>md5" per
       line) computed with Ir.Interp, serially, row-wise, fusion off.

     bench.exe run --workload W --seed N --seconds S --trace 0|1
       reads those digests on stdin, measures for S seconds and prints
       the result. Exits 1 when an op failed, mismatched the oracle or
       left a share flight open.

   perfbench/run.py builds this program and runs the two modes in
   separate processes, so the oracle's memory and time stay out of the
   measured process. See perfbench/README.md for the metric catalog. *)

module D = Workloads.Datagen
module W = Workloads.Workflows
module Service = Serve.Service

(* ---- inputs ---- *)

type workflow = {
  name : string;
  build : unit -> Ir.Dag.t;
  inputs : int -> (string * D.sized) list;
}

(* The CLI zoo at the CLI loader sizes. Each generator gets its own
   seed derived from the workload seed; pagerank and components share
   one graph, as in the CLI. *)
let zoo =
  let s seed k = (seed * 101) + k in
  let orkut seed =
    let edges, vertices = D.graph_tables ~seed:(s seed 4) D.orkut ~edges:() in
    [ ("edges", edges); ("vertices", vertices) ]
  in
  [ { name = "tpch"; build = W.tpch_q17;
      inputs = (fun seed ->
          let l, p = D.tpch ~seed:(s seed 1) ~scale_factor:10 () in
          [ ("lineitem", l); ("part", p) ]) };
    { name = "top-shopper"; build = W.top_shopper;
      inputs = (fun seed ->
          [ ("purchases", D.purchases ~seed:(s seed 2) ~users:10_000_000 ()) ]) };
    { name = "netflix"; build = W.netflix;
      inputs = (fun seed ->
          let r, m = D.netflix ~seed:(s seed 3) ~movies:8000 () in
          [ ("ratings", r); ("movies", m) ]) };
    { name = "pagerank"; build = (fun () -> W.pagerank_gas ()); inputs = orkut };
    { name = "components";
      build = (fun () -> W.connected_components ~iterations:8 ());
      inputs = orkut };
    { name = "cross-community";
      build = (fun () -> W.cross_community_pagerank ());
      inputs = (fun seed ->
          let a, b = D.community_pair ~seed:(s seed 5) () in
          [ ("edges_a", a); ("edges_b", b) ]) };
    { name = "sssp"; build = (fun () -> W.sssp ~max_rounds:8 ());
      inputs = (fun seed ->
          let e, f = D.sssp_tables ~seed:(s seed 6) D.twitter () in
          [ ("sssp_edges", e); ("sssp_seeds", f) ]) };
    { name = "kmeans"; build = (fun () -> W.kmeans ());
      inputs = (fun seed ->
          let p, c =
            D.kmeans_points ~seed:(s seed 7) ~points:100_000_000 ~k:100 ()
          in
          [ ("points", p); ("centroids", c) ]) };
    { name = "join"; build = W.simple_join;
      inputs = (fun seed ->
          let l, r = D.asymmetric_join_tables ~seed:(s seed 8) () in
          [ ("left", l); ("right", r) ]) };
    { name = "project"; build = W.project_only;
      inputs = (fun seed ->
          [ ("lines", D.two_column_ascii ~seed:(s seed 9) ~modeled_mb:2048. ()) ]) } ]

let serve_mix = [ "tpch"; "top-shopper"; "netflix"; "pagerank"; "join"; "project" ]

let workflow name = List.find (fun w -> w.name = name) zoo

let workflows_of = function
  | "oneshot-zoo" -> zoo
  | "serve-repeat" | "serve-churn" -> List.map workflow serve_mix
  | w -> failwith ("unknown workload " ^ w)

let cluster () = Engines.Cluster.ec2 ~nodes:16

let hdfs_of bindings =
  let hdfs = Engines.Hdfs.create () in
  List.iter (fun (rel, sized) -> D.put hdfs rel sized) bindings;
  hdfs

(* ---- small statistics ---- *)

let now = Obs.Clock.now_ns

let ms_since t0 = 1000. *. Obs.Clock.elapsed_s ~since:t0 ~until:(now ())

let timed f =
  let t0 = now () in
  let r = f () in
  (r, ms_since t0)

let percentile q xs = Service.percentile q xs

let median xs = percentile 0.5 xs

(* ---- steady samples ---- *)

(* Two things move a wall-time sample that are not the code under
   test (README.md, "Noise findings"). The garbage of the previous op:
   a compile after kmeans' run pays for that run's major-heap work. And
   the host's speed, which drifts in spells of seconds. So every
   untraced timed step starts on a fully collected heap and is
   bracketed by two runs of a fixed reference loop; its times are
   scaled by [ref_nominal_ms] over the loop's mean time, giving the
   sample as it would read on a host where the loop takes
   [ref_nominal_ms]. The loop is benchmark code, does not allocate and
   stays in L1, so a change to the program cannot move it. *)
let ref_nominal_ms = 2.0

let ref_iterations = 400_000

let ref_buf = Array.make 1024 0

let ref_loop () =
  let x = ref 88172645463325252 in
  for _ = 1 to ref_iterations do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let i = !x land 1023 in
    ref_buf.(i) <- ref_buf.(i) + (!x lsr 3)
  done

let ref_samples = ref []

let ref_ms () =
  let t0 = now () in
  ref_loop ();
  let ms = ms_since t0 in
  ref_samples := ms :: !ref_samples;
  ms

(* off in traced runs, whose spans and overhead ratio use raw times *)
let steady = ref true

(* [f ()] and the factor that takes a wall time measured during it to
   the nominal host speed *)
let speed f =
  if not !steady then (f (), 1.)
  else begin
    Gc.full_major ();
    let r0 = ref_ms () in
    let x = f () in
    let r1 = ref_ms () in
    (x, 2. *. ref_nominal_ms /. (r0 +. r1))
  end

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.
  | xs -> exp (mean (List.map log xs))

let ratio a b = if b = 0. then 0. else a /. b

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" @@ fun ic ->
  let rec scan () =
    match In_channel.input_line ic with
    | None -> 0.
    | Some line ->
      if String.starts_with ~prefix:"VmHWM:" line then
        Scanf.sscanf line "VmHWM: %f kB" (fun kb -> kb /. 1024.)
      else scan ()
  in
  scan ()

(* ---- the row oracle ---- *)

let digest_table table =
  Relation.Table.to_csv table
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.sort String.compare
  |> String.concat "\n"
  |> Digest.string |> Digest.to_hex

let digests outputs =
  List.sort compare (List.map (fun (rel, t) -> (rel, digest_table t)) outputs)

let oracle_outputs hdfs graph =
  let store =
    Ir.Interp.store_of_list
      (List.map
         (fun rel -> (rel, Engines.Hdfs.table hdfs rel))
         (Engines.Hdfs.list hdfs))
  in
  Ir.Fusion.set_enabled (Some false);
  Fun.protect ~finally:(fun () -> Ir.Fusion.set_enabled None) @@ fun () ->
  Relation.Pool.with_jobs 1 @@ fun () ->
  Relation.Column.with_enabled false @@ fun () ->
  Ir.Interp.outputs ~store graph

let print_oracle ~workload ~seed =
  List.iter
    (fun w ->
       let hdfs = hdfs_of (w.inputs seed) in
       List.iter
         (fun (rel, d) -> Printf.printf "%s\t%s\t%s\n" w.name rel d)
         (digests (oracle_outputs hdfs (w.build ()))))
    (workflows_of workload)

let read_oracle () =
  let table = Hashtbl.create 16 in
  let rec loop () =
    match In_channel.input_line stdin with
    | None -> ()
    | Some line ->
      (match String.split_on_char '\t' line with
       | [ wf; rel; d ] ->
         let prev = Option.value (Hashtbl.find_opt table wf) ~default:[] in
         Hashtbl.replace table wf ((rel, d) :: prev)
       | _ -> ());
      loop ()
  in
  loop ();
  fun wf ->
    List.sort compare (Option.value (Hashtbl.find_opt table wf) ~default:[])

(* ---- results ---- *)

type metric = { m_name : string; value : float; unit_ : string }

type result = {
  attempted : int;
  failed : int;
  leaked : int;        (* share flights left open after a drive *)
  metrics : metric list;
  ops_wall_s : float;  (* wall seconds of measured op work *)
  ops : int;
}

(* bookkeeping shared by both loops: every op is attempted once and
   fails on an error or an oracle mismatch *)
type tally = {
  oracle : string -> (string * string) list;
  mutable t_attempted : int;
  mutable t_failed : int;
}

let check tally ~workflow outputs =
  tally.t_attempted <- tally.t_attempted + 1;
  match outputs with
  | Error msg ->
    prerr_endline ("bench: " ^ workflow ^ " failed: " ^ msg);
    tally.t_failed <- tally.t_failed + 1
  | Ok outputs ->
    if digests outputs <> tally.oracle workflow then begin
      prerr_endline ("bench: " ^ workflow ^ " disagrees with the oracle");
      tally.t_failed <- tally.t_failed + 1
    end

let span name f = Obs.Trace.with_span name f

(* build + cold plan (fresh history, no cache) + show_code *)
let compile m w hdfs =
  let graph = span "bench.build" w.build in
  let m = Musketeer.with_history m (Musketeer.History.create ()) in
  match
    span "bench.plan" (fun () -> Musketeer.plan m ~workflow:w.name ~hdfs graph)
  with
  | None -> failwith (w.name ^ ": no feasible plan")
  | Some (plan, graph) ->
    ignore (span "bench.show_code" (fun () -> Musketeer.show_code ~graph plan));
    (m, plan, graph)

(* [f] back to back until the calls span [sample_ms]: the last result
   and the mean ms per call. One sample then amortizes the cold caches
   and the GC slice the previous op leaves behind, which a lone
   sub-millisecond call would mostly measure (a compile takes about
   0.2 ms, a serve-mix run about 1 ms). *)
let sample_ms = 10.

let repeat_ms f =
  let t0 = now () in
  let rec go n =
    let r = f () in
    let el = ms_since t0 in
    if el >= sample_ms then (r, el /. float_of_int n) else go (n + 1)
  in
  go 1

let compile_sample_ms m w hdfs = snd (repeat_ms (fun () -> compile m w hdfs))

let execute m w hdfs plan graph =
  let snap = span "bench.snapshot" (fun () -> Engines.Hdfs.snapshot hdfs) in
  span "bench.execute" @@ fun () ->
  Musketeer.execute_plan m ~workflow:w.name ~hdfs:snap ~graph plan

(* The samples that follow an op, as one steady step: [m0]'s compile
   of [w] and, when the op's own run took less than [sample_ms] at
   nominal speed, a run of the op's plan. Both at nominal speed. *)
let samples m0 w hdfs (m, plan, graph) ~op_run_ms =
  let short = op_run_ms < sample_ms in
  let (c_ms, r_ms), k =
    speed (fun () ->
        let c_ms = compile_sample_ms m0 w hdfs in
        if short then (c_ms, snd (repeat_ms (fun () -> execute m w hdfs plan graph)))
        else (c_ms, 0.))
  in
  (k *. c_ms, if short then k *. r_ms else op_run_ms)

let outputs_of = function
  | Ok r -> Ok r.Musketeer.Executor.outputs
  | Error e -> Error (Engines.Report.error_to_string e)

let makespan_of = function
  | Ok r -> r.Musketeer.Executor.makespan_s
  | Error _ -> 0.

(* Set-up is deterministic, so it is repeated and reported as the
   median of its samples. Three repetitions open the run (the last
   one's state is used); in untraced runs one more follows every
   oneshot round or serve window. Spread over the run, the samples see
   the host across the whole run rather than at process start, where
   the page faults of a growing heap dominate. *)
type setup_timing = { datagen_ms : float; calibrate_ms : float; total_s : float }

let initial_setups = 3

let setups make =
  let timings = ref [] in
  let once () =
    let (st, t), k = speed make in
    timings := { datagen_ms = t.datagen_ms *. k; calibrate_ms = t.calibrate_ms *. k;
                 total_s = t.total_s *. k } :: !timings;
    st
  in
  for _ = 2 to initial_setups do ignore (once ()) done;
  let state = once () in
  let again () = if not (Obs.Trace.enabled ()) then ignore (once ()) in
  let pick f = median (List.map f !timings) in
  (state, again, pick)

(* ---- oneshot-zoo ---- *)

type oneshot_setup = {
  m : Musketeer.t;
  hdfs : (string * Engines.Hdfs.t) list;
}

let setup_oneshot seed =
  let t0 = now () in
  let hdfs, datagen_ms =
    timed (fun () -> List.map (fun w -> (w.name, hdfs_of (w.inputs seed))) zoo)
  in
  let m, calibrate_ms =
    timed (fun () -> Musketeer.create ~cluster:(cluster ()) ())
  in
  ({ m; hdfs }, { datagen_ms; calibrate_ms; total_s = ms_since t0 /. 1000. })

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* Every timed phase runs at jobs 1 (main sets it). A second domain on
   a 2-vCPU host measures the scheduler: at jobs 2 the zoo ran slower
   than at jobs 1 and its run times spread twice as far (README.md,
   "Noise findings"). Pool workers, once spawned, live for the rest of
   the process, so the pool is exercised only by [pool_round], after
   the traced run's timed phases. *)
let run_oneshot ~seed ~seconds ~oracle =
  let st, setup_again, pick = setups (fun () -> setup_oneshot seed) in
  let tally = { oracle; t_attempted = 0; t_failed = 0 } in
  (* one untimed round in zoo order fills lazy state and gives the
     modeled figures, which do not depend on run length *)
  let modeled =
    List.map
      (fun w ->
         let hdfs = List.assoc w.name st.hdfs in
         let m, plan, graph = compile st.m w hdfs in
         let r = execute m w hdfs plan graph in
         check tally ~workflow:w.name (outputs_of r);
         makespan_of r)
      zoo
  in
  let rng = Random.State.make [| seed |] in
  let compile_ms = Hashtbl.create 16 and run_ms = Hashtbl.create 16 in
  let add tbl k v =
    Hashtbl.replace tbl k (v :: Option.value (Hashtbl.find_opt tbl k) ~default:[])
  in
  (* throughput is the median over rounds *)
  let wall = ref 0. and ops = ref 0 and rounds = ref [] in
  let t0 = now () in
  while ms_since t0 < 1000. *. seconds do
    let wall0 = !wall in
    Fun.protect ~finally:(fun () -> rounds := (!wall -. wall0) :: !rounds)
    @@ fun () ->
    List.iter
      (fun w ->
         let hdfs = List.assoc w.name st.hdfs in
         span "bench.op" @@ fun () ->
         let (compiled, c_ms, r, r_ms), k =
           speed (fun () ->
               let compiled, c_ms = timed (fun () -> compile st.m w hdfs) in
               let m, plan, graph = compiled in
               let r, r_ms = timed (fun () -> execute m w hdfs plan graph) in
               (compiled, c_ms, r, r_ms))
         in
         wall := !wall +. (k *. (c_ms +. r_ms) /. 1000.);
         incr ops;
         check tally ~workflow:w.name (outputs_of r);
         (* repeated compiles and runs are samples, not part of the op *)
         if not (Obs.Trace.enabled ()) then begin
           let c, r = samples st.m w hdfs compiled ~op_run_ms:(k *. r_ms) in
           add compile_ms w.name c;
           add run_ms w.name r
         end)
      (shuffle rng zoo);
    setup_again ()
  done;
  let per_wf tbl =
    geomean (List.map (fun w ->
        median (Option.value (Hashtbl.find_opt tbl w.name) ~default:[]))
        zoo)
  in
  { attempted = tally.t_attempted; failed = tally.t_failed; leaked = 0;
    ops = !ops; ops_wall_s = !wall;
    metrics =
      [ { m_name = "setup_s"; value = pick (fun t -> t.total_s); unit_ = "s" };
        { m_name = "ops_per_s";
          value = ratio (float_of_int (List.length zoo)) (median !rounds);
          unit_ = "ops/s" };
        { m_name = "compile_ms_geomean"; value = per_wf compile_ms; unit_ = "ms" };
        { m_name = "run_ms_geomean"; value = per_wf run_ms; unit_ = "ms" };
        { m_name = "modeled_makespan_s"; value = List.fold_left ( +. ) 0. modeled;
          unit_ = "s" };
        { m_name = "modeled_latency_mean_s"; value = mean modeled; unit_ = "s" };
        { m_name = "modeled_latency_p99_s"; value = percentile 0.99 modeled;
          unit_ = "s" };
        { m_name = "peak_rss_mb"; value = peak_rss_mb (); unit_ = "MB" };
        { m_name = "workloads.datagen_ms"; value = pick (fun t -> t.datagen_ms);
          unit_ = "ms" };
        { m_name = "core.calibrate_ms"; value = pick (fun t -> t.calibrate_ms);
          unit_ = "ms" } ] }

(* One round in zoo order at jobs 2: the pool's batch and task counts,
   and a check of every parallel output against the oracle. *)
let pool_round ~seed ~oracle =
  let st, _ = setup_oneshot seed in
  let tally = { oracle; t_attempted = 0; t_failed = 0 } in
  Relation.Pool.with_jobs 2 @@ fun () ->
  let pool0 = Relation.Pool.stats () in
  List.iter
    (fun w ->
       let hdfs = List.assoc w.name st.hdfs in
       let m, plan, graph = compile st.m w hdfs in
       check tally ~workflow:w.name (outputs_of (execute m w hdfs plan graph)))
    zoo;
  let pool1 = Relation.Pool.stats () in
  ( tally,
    [ ("relation.pool.batches", float_of_int (pool1.batches - pool0.batches));
      ("relation.pool.tasks", float_of_int (pool1.tasks - pool0.tasks)) ] )

(* ---- serve-repeat / serve-churn ---- *)

let tenants = [ ("gold", 3.); ("bronze", 1.) ]

let serve_config =
  { Service.default_config with
    Service.concurrency = 4; subresult_cache_mb = 256.; weights = tenants }

(* Poisson arrivals per virtual second: the highest rate, halving from
   0.08/s, at which pass 0's mean queue delay stays below its mean
   modeled makespan in both its first and last quarter, on both serve
   workloads (README.md, "Choosing the rate"). *)
let default_rate = ref 0.01

let pass_count = 1000

let chunk = 20

type serve_setup = {
  svc : Service.t;
  s_m : Musketeer.t;
  s_hdfs : Engines.Hdfs.t;
  mix : Serve.Client.mix_entry list;
}

let setup_serve seed =
  let t0 = now () in
  let s_hdfs, datagen_ms =
    timed (fun () -> hdfs_of (List.concat_map (fun w -> w.inputs seed)
                                (workflows_of "serve-repeat")))
  in
  let s_m, calibrate_ms =
    timed (fun () -> Musketeer.create ~cluster:(cluster ()) ())
  in
  let mix =
    List.map
      (fun w -> { Serve.Client.workflow = w.name; graph = w.build (); weight = 1. })
      (workflows_of "serve-repeat")
  in
  let svc = Service.create ~config:serve_config s_m ~hdfs:s_hdfs in
  ({ svc; s_m; s_hdfs; mix },
   { datagen_ms; calibrate_ms; total_s = ms_since t0 /. 1000. })

(* One pass of arrivals: the superposition of one Poisson stream per
   mix workflow, each at rate/|mix|, is a Poisson stream at the full
   rate whose per-workflow counts are fixed. The trace's seed is fixed
   too (README.md, "Noise findings"); the workload seed changes the
   input tables only. *)
let trace_seed = 7

let trace ~start_s mix =
  let n = List.length mix in
  List.concat
    (List.mapi
       (fun i entry ->
          Serve.Client.generate ~start_s ~seed:(trace_seed + i)
            ~rate_per_s:(!default_rate /. float_of_int n)
            ~count:((pass_count + n - 1) / n) ~tenants ~mix:[ entry ] ())
       mix)
  |> List.stable_sort (fun (a : Service.submission) b ->
      Float.compare a.arrival_s b.arrival_s)

let rec split n = function
  | l when n <= 0 -> ([], l)
  | [] -> ([], [])
  | x :: tl ->
    let a, b = split (n - 1) tl in
    (x :: a, b)

let served_outputs (o : Service.outcome) =
  match o.status, o.error with
  | Service.Served, None -> Ok o.outputs
  | Service.Served, Some e -> Error e
  | Service.Shed why, _ -> Error ("shed: " ^ why)
  | Service.Expired, _ -> Error "expired"

let run_serve ~churn ~seed ~seconds ~oracle =
  let st, setup_again, pick = setups (fun () -> setup_serve seed) in
  let tally = { oracle; t_attempted = 0; t_failed = 0 } in
  let pool0 = Relation.Pool.stats () in
  let base = Engines.Hdfs.snapshot st.s_hdfs in
  let relations = Array.of_list (Engines.Hdfs.list st.s_hdfs) in
  let rewrites = Hashtbl.create 16 in
  let nput = ref 0 and put_ms = ref [] in
  (* rewrite one input with its own rows; the modeled size alternates
     x1.5 / x1 per relation, so plans and sizes really change *)
  let put_next () =
    let rel = relations.(!nput mod Array.length relations) in
    incr nput;
    let k = Option.value (Hashtbl.find_opt rewrites rel) ~default:0 in
    Hashtbl.replace rewrites rel (k + 1);
    let scale = if k mod 2 = 0 then 1.5 else 1. in
    let table = Engines.Hdfs.table base rel in
    let modeled_mb = scale *. Engines.Hdfs.modeled_mb base rel in
    let (), ms =
      timed (fun () ->
          span "bench.put_input" (fun () ->
              Service.put_input st.svc rel ~modeled_mb table))
    in
    put_ms := ms :: !put_ms;
    ms
  in
  (* The serve mix's one-shot compile and run, probed round-robin on
     the pre-serve inputs for the first [probe_share] of the run, before
     the first drive. Probes taken between batches, on the heap of a
     warm service, read up to 25% apart from one run to the next
     (README.md, "Noise findings"). Untraced runs only. *)
  let probe_share = 0.2 in
  let mix_wfs = Array.of_list (workflows_of "serve-repeat") in
  let probe_compile = Hashtbl.create 8 and probe_run = Hashtbl.create 8 in
  let add tbl k v =
    Hashtbl.replace tbl k (v :: Option.value (Hashtbl.find_opt tbl k) ~default:[])
  in
  let nprobe = ref 0 in
  let probe () =
    let w = mix_wfs.(!nprobe mod Array.length mix_wfs) in
    incr nprobe;
    let m, plan, graph = compile st.s_m w base in
    let (c_ms, (r, r_ms)), k =
      speed (fun () ->
          let c_ms = compile_sample_ms st.s_m w base in
          (c_ms, repeat_ms (fun () -> execute m w base plan graph)))
    in
    add probe_compile w.name (k *. c_ms);
    add probe_run w.name (k *. r_ms);
    check tally ~workflow:w.name (outputs_of r)
  in
  if not (Obs.Trace.enabled ()) then begin
    let t0 = now () in
    while ms_since t0 < 1000. *. probe_share *. seconds do probe () done
  end;
  let seconds = (1. -. probe_share) *. seconds in
  (* Timing starts after the first [warm_batches] batches (cold plans,
     empty caches) and runs for the rest of [seconds], at least through
     pass 0, which gives every modeled figure and count. Later passes
     start when the previous one's last submission finished. *)
  let warm_batches = 3 in
  let drive_ms = ref [] and wall = ref 0. and leaked = ref 0 in
  let ops = ref 0 and batches = ref 0 and all = ref [] in
  (* one more set-up sample after every [window] timed batches *)
  let window = 5 in
  let t0 = ref None in
  let time_up () =
    match !t0 with
    | Some t0 -> ms_since t0 >= 1000. *. seconds
    | None -> false
  in
  let drive_pass ~start_s ~stop =
    let outs = ref [] in
    let rec go subs =
      if subs <> [] && not (stop ()) then begin
        let batch, rest = split chunk subs in
        let (outcomes, ms, put), k =
          speed (fun () ->
              let outcomes, ms =
                timed (fun () -> span "bench.drive" (fun () -> Service.drive st.svc batch))
              in
              leaked := max !leaked (Service.open_flights st.svc);
              let put = if churn then put_next () else 0. in
              (outcomes, ms, put))
        in
        let ms = k *. ms and put = k *. put in
        incr batches;
        if !batches > warm_batches then begin
          drive_ms := ms :: !drive_ms;
          wall := !wall +. ((ms +. put) /. 1000.);
          ops := !ops + List.length outcomes;
          if (!batches - warm_batches) mod window = 0 then setup_again ()
        end;
        if !batches = warm_batches then t0 := Some (now ());
        List.iter
          (fun (o : Service.outcome) ->
             check tally ~workflow:o.sub.workflow (served_outputs o);
             outs := { o with outputs = [] } :: !outs)
          outcomes;
        go rest
      end
    in
    go (trace ~start_s st.mix);
    let outs = List.rev !outs in
    all := List.rev_append outs !all;
    let finish =
      List.fold_left (fun a (o : Service.outcome) -> Float.max a o.finish_s)
        start_s outs
    in
    (outs, finish)
  in
  let first_outs, finish = drive_pass ~start_s:0. ~stop:(fun () -> false) in
  (* Later passes run as far as the time allows, and warm caches make
     them faster and fill the sub-result cache further. Throughput and
     the memory peak are therefore taken over the fixed work of pass 0
     (after the warm-up batches); later passes add set-up samples and
     the per-layer drive times. *)
  let pass0_rate = ratio (float_of_int !ops) !wall in
  let rss_mb = peak_rss_mb () in
  let sum = Service.summarize st.svc first_outs in
  let start_s = ref finish in
  while not (time_up ()) do
    start_s := snd (drive_pass ~start_s:!start_s ~stop:time_up)
  done;
  let pool1 = Relation.Pool.stats () in
  let served =
    List.filter (fun (o : Service.outcome) -> o.status = Service.Served) first_outs
  in
  let queue_delay l =
    List.map (fun (o : Service.outcome) -> o.queue_delay_s) l
  in
  (* the rate rule's evidence (README.md, "Choosing the rate") *)
  let q = List.length served / 4 in
  let head, _ = split q served and _, tail = split (List.length served - q) served in
  Printf.eprintf
    "bench: rate %g/s: pass 0 mean queue delay %.1f s (first quarter), \
     %.1f s (last quarter); mean makespan %.1f s\n%!"
    !default_rate (mean (queue_delay head)) (mean (queue_delay tail))
    (mean (List.map (fun (o : Service.outcome) -> o.makespan_s) served));
  let planning label =
    List.filter_map
      (fun (o : Service.outcome) ->
         if (o.cache = "hit") = (label = "hit") && o.status = Service.Served
         then Some o.planning_s else None)
      !all
  in
  let per_wf tbl =
    geomean (Hashtbl.fold (fun _ samples acc -> median samples :: acc) tbl [])
  in
  let cache = sum.Service.cache_stats and sub = sum.Service.subresult in
  let lookups =
    float_of_int (cache.hits + cache.misses + cache.invalidations)
  in
  let count name v = { m_name = name; value = float_of_int v; unit_ = "count" } in
  { attempted = tally.t_attempted; failed = tally.t_failed; leaked = !leaked;
    ops = !ops; ops_wall_s = !wall;
    metrics =
      [ { m_name = "setup_s"; value = pick (fun t -> t.total_s); unit_ = "s" };
        { m_name = "ops_per_s"; value = pass0_rate; unit_ = "ops/s" };
        { m_name = "compile_ms_geomean"; value = per_wf probe_compile;
          unit_ = "ms" };
        { m_name = "run_ms_geomean"; value = per_wf probe_run; unit_ = "ms" };
        { m_name = "modeled_makespan_s";
          value = List.fold_left (fun a (o : Service.outcome) -> a +. o.makespan_s)
              0. first_outs;
          unit_ = "s" };
        { m_name = "modeled_latency_mean_s";
          value = mean (List.map (fun (o : Service.outcome) -> o.latency_s) served);
          unit_ = "s" };
        { m_name = "modeled_latency_p99_s";
          value = percentile 0.99 (List.map (fun (o : Service.outcome) -> o.latency_s) served);
          unit_ = "s" };
        { m_name = "peak_rss_mb"; value = rss_mb; unit_ = "MB" };
        { m_name = "workloads.datagen_ms"; value = pick (fun t -> t.datagen_ms);
          unit_ = "ms" };
        { m_name = "core.calibrate_ms"; value = pick (fun t -> t.calibrate_ms);
          unit_ = "ms" };
        count "relation.pool.batches" (pool1.batches - pool0.batches);
        count "relation.pool.tasks" (pool1.tasks - pool0.tasks);
        { m_name = "core.plan_cache.hit_ratio";
          value = ratio (float_of_int cache.hits) lookups; unit_ = "ratio" };
        count "core.plan_cache.hits" cache.hits;
        count "core.plan_cache.misses" cache.misses;
        count "core.plan_cache.invalidations" cache.invalidations;
        { m_name = "serve.plan_hit_us_p50"; value = 1e6 *. median (planning "hit");
          unit_ = "us" };
        { m_name = "serve.plan_miss_ms_p50"; value = 1e3 *. median (planning "miss");
          unit_ = "ms" };
        { m_name = "engines.subplan_share.attach_ratio";
          value = ratio (float_of_int sum.subplan_hits)
              (float_of_int (sum.subplan_hits + sum.subplan_paid));
          unit_ = "ratio" };
        count "engines.subplan_share.attached" sum.subplan_hits;
        count "engines.subplan_share.paid" sum.subplan_paid;
        { m_name = "engines.scan_share.saved_mb"; value = sum.scan_saved_mb;
          unit_ = "MB" };
        { m_name = "serve.subresult.hit_ratio";
          value = ratio (float_of_int sub.hits) (float_of_int (sub.hits + sub.misses));
          unit_ = "ratio" };
        count "serve.subresult.hits" sub.hits;
        count "serve.subresult.misses" sub.misses;
        count "serve.subresult.evictions" sub.evictions;
        count "serve.subresult.invalidations" sub.invalidations;
        { m_name = "serve.subresult.bytes_mb"; value = sub.bytes_mb; unit_ = "MB" };
        { m_name = "serve.drive_ms"; value = mean !drive_ms; unit_ = "ms" };
        { m_name = "serve.put_input_ms"; value = mean !put_ms; unit_ = "ms" };
        { m_name = "serve.queue_delay_p99_s";
          value = percentile 0.99 (queue_delay served);
          unit_ = "s" } ] }

(* ---- the traced run's per-layer figures ---- *)

let end_to_end =
  [ "setup_s"; "ops_per_s"; "compile_ms_geomean"; "run_ms_geomean";
    "modeled_makespan_s"; "modeled_latency_mean_s"; "modeled_latency_p99_s";
    "peak_rss_mb" ]

let per_layer =
  [ ("workloads.datagen_ms", "ms"); ("core.calibrate_ms", "ms");
    ("frontends.build_ms", "ms"); ("core.plan_cold_ms", "ms");
    ("core.codegen_ms", "ms"); ("core.optimize_ms", "ms");
    ("core.partition_ms", "ms"); ("core.execute_ms", "ms");
    ("engines.hdfs.snapshot_ms", "ms"); ("engines.run_self_ms", "ms");
    ("relation.kernel_ms", "ms"); ("relation.pool.batches", "count");
    ("relation.pool.tasks", "count"); ("engines.jobs_per_op", "count");
    ("engines.hdfs.read_mb", "MB"); ("engines.hdfs.written_mb", "MB");
    ("core.plan_cache.hit_ratio", "ratio"); ("core.plan_cache.hits", "count");
    ("core.plan_cache.misses", "count");
    ("core.plan_cache.invalidations", "count");
    ("serve.plan_hit_us_p50", "us"); ("serve.plan_miss_ms_p50", "ms");
    ("engines.subplan_share.attach_ratio", "ratio");
    ("engines.subplan_share.attached", "count");
    ("engines.subplan_share.paid", "count");
    ("engines.scan_share.saved_mb", "MB");
    ("serve.subresult.hit_ratio", "ratio"); ("serve.subresult.hits", "count");
    ("serve.subresult.misses", "count");
    ("serve.subresult.evictions", "count");
    ("serve.subresult.invalidations", "count");
    ("serve.subresult.bytes_mb", "MB"); ("serve.drive_ms", "ms");
    ("serve.submit_ms_p50", "ms"); ("serve.submit_ms_p99", "ms");
    ("serve.self_ms", "ms"); ("serve.put_input_ms", "ms");
    ("serve.queue_delay_p99_s", "s"); ("obs.trace_overhead_ratio", "ratio");
    ("obs.attributed_ratio", "ratio") ]

(* Span-derived figures, per op unless named as a percentile. A span's
   self time is its duration minus that of its children. *)
let span_metrics trace ~ops =
  let spans = Obs.Trace.spans trace in
  let dur (s : Obs.Trace.span) = Int64.to_float s.dur_ns /. 1e6 in
  let children = Hashtbl.create 4096 in
  List.iter
    (fun (s : Obs.Trace.span) ->
       Option.iter
         (fun p ->
            Hashtbl.replace children p
              (dur s +. Option.value (Hashtbl.find_opt children p) ~default:0.))
         s.parent)
    spans;
  let self (s : Obs.Trace.span) =
    Float.max 0.
      (dur s -. Option.value (Hashtbl.find_opt children s.id) ~default:0.)
  in
  let named names (s : Obs.Trace.span) = List.mem s.name names in
  let total f sel =
    List.fold_left (fun a s -> if sel s then a +. f s else a) 0. spans
  in
  let per_op f sel = ratio (total f sel) (float_of_int ops) in
  let attr key (s : Obs.Trace.span) =
    match List.assoc_opt key s.attrs with
    | Some (Obs.Trace.Float v) -> v
    | Some (Obs.Trace.Int v) -> float_of_int v
    | _ -> 0.
  in
  let is_job (s : Obs.Trace.span) = String.starts_with ~prefix:"job:" s.name in
  let is_bench (s : Obs.Trace.span) =
    String.starts_with ~prefix:"bench." s.name
  in
  let durs sel = List.filter_map (fun s -> if sel s then Some (dur s) else None) spans in
  let cold_plan (s : Obs.Trace.span) =
    s.name = "plan"
    && List.assoc_opt "plan.cache" s.attrs <> Some (Obs.Trace.String "hit")
  in
  let submits = durs (named [ "serve.submit" ]) in
  [ ("frontends.build_ms", per_op dur (named [ "bench.build" ]));
    ("core.plan_cold_ms", median (durs cold_plan));
    ("core.codegen_ms", per_op dur (named [ "codegen"; "bench.show_code" ]));
    ("core.optimize_ms",
     per_op self (fun s -> s.name = "optimize"
                           || String.starts_with ~prefix:"optimize." s.name));
    ("core.partition_ms", per_op self (named [ "partition" ]));
    ("core.execute_ms", per_op dur (named [ "execute" ]));
    ("engines.hdfs.snapshot_ms", per_op dur (named [ "bench.snapshot" ]));
    ("engines.run_self_ms", per_op self (named [ "engine.run" ]));
    ("relation.kernel_ms", per_op self (named [ "kernel.fused" ]));
    ("engines.jobs_per_op", per_op (fun _ -> 1.) is_job);
    ("engines.hdfs.read_mb", per_op (attr "input_mb") is_job);
    ("engines.hdfs.written_mb", per_op (attr "output_mb") is_job);
    ("serve.submit_ms_p50", percentile 0.5 submits);
    ("serve.submit_ms_p99", percentile 0.99 submits);
    ("serve.self_ms", per_op self (named [ "serve.submit" ]));
    ("obs.attributed_ratio",
     1. -. ratio (total self is_bench)
       (total dur (fun s -> is_bench s && s.parent = None))) ]

(* ---- main ---- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~(r : result) metrics =
  let correct = r.failed = 0 && r.leaked = 0 && r.attempted > 0 in
  if r.leaked > 0 then
    prerr_endline
      (Printf.sprintf "bench: %d share flight(s) left open after a drive"
         r.leaked);
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct r.attempted
    (r.failed + if r.leaked > 0 then 1 else 0)
    (String.concat ", "
       (List.map
          (fun (name, v, u) ->
             Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
               (json_number v) u)
          metrics));
  if not correct then exit 1

let () =
  let args = Array.to_list Sys.argv in
  let rec opts acc = function
    | k :: v :: tl when String.starts_with ~prefix:"--" k ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) tl
    | [] -> acc
    | x :: _ -> failwith ("bench: unexpected argument " ^ x)
  in
  let mode, kv =
    match args with
    | _ :: mode :: tl -> (mode, opts [] tl)
    | _ -> failwith "usage: bench.exe (oracle|run) --workload W --seed N ..."
  in
  let get k d = Option.value (List.assoc_opt k kv) ~default:d in
  let workload = get "workload" "oneshot-zoo" in
  let seed = int_of_string (get "seed" "1") in
  ignore (workflows_of workload);
  Option.iter (fun r -> default_rate := float_of_string r)
    (List.assoc_opt "rate" kv);
  match mode with
  | "oracle" -> print_oracle ~workload ~seed
  | "run" ->
    let oracle = read_oracle () in
    let seconds = float_of_string (get "seconds" "10") in
    let run seconds =
      Relation.Pool.with_jobs 1 @@ fun () ->
      match workload with
      | "oneshot-zoo" -> run_oneshot ~seed ~seconds ~oracle
      | "serve-repeat" -> run_serve ~churn:false ~seed ~seconds ~oracle
      | _ -> run_serve ~churn:true ~seed ~seconds ~oracle
    in
    let value (r : result) name =
      match List.find_opt (fun m -> m.m_name = name) r.metrics with
      | Some m -> (m.value, m.unit_)
      | None -> (0., "")
    in
    let e2e r =
      List.map
        (fun name ->
           let v, u = value r name in
           (name, v, u))
        end_to_end
    in
    (match get "trace" "0" with
     | "0" ->
       let r = run seconds in
       let p q = percentile q !ref_samples in
       Printf.eprintf "bench: reference loop %.3f / %.3f / %.3f ms (p10 / p50 / p90)\n%!"
         (p 0.1) (p 0.5) (p 0.9);
       print_result ~r (e2e r)
     | mode ->
       steady := false;
       (* the untraced half gives the tracing overhead; the traced half
          the spans *)
       let plain = run (seconds /. 2.) in
       let trace, r = Obs.Trace.collecting (fun () -> run (seconds /. 2.)) in
       let spans = span_metrics trace ~ops:r.ops in
       let pool_tally, pool =
         match workload with
         | "oneshot-zoo" -> pool_round ~seed ~oracle
         | _ -> ({ oracle; t_attempted = 0; t_failed = 0 }, [])
       in
       let per_op (r : result) = ratio r.ops_wall_s (float_of_int r.ops) in
       let layer =
         List.map
           (fun (name, u) ->
              let v =
                if name = "obs.trace_overhead_ratio" then
                  ratio (per_op r) (per_op plain) -. 1.
                else
                  match List.assoc_opt name (spans @ pool) with
                  | Some v -> v
                  | None -> fst (value r name)
              in
              (name, v, u))
           per_layer
       in
       let r =
         { r with attempted = r.attempted + plain.attempted + pool_tally.t_attempted;
                  failed = r.failed + plain.failed + pool_tally.t_failed;
                  leaked = max r.leaked plain.leaked }
       in
       print_result ~r (if mode = "all" then e2e plain @ layer else layer))
  | m -> failwith ("bench: unknown mode " ^ m)
