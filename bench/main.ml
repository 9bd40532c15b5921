(* Benchmark harness: regenerates every table and figure of the paper
   (see DESIGN.md's per-experiment index). With no argument all
   experiments run in order; pass target names to run a subset;
   `bechamel` runs the Bechamel micro-benchmarks of the partitioning
   algorithms (the Figure 13 measurement).

   `--trace FILE` (anywhere on the command line) records a Chrome
   trace_event JSON trace of the selected experiments — one span per
   target wrapping the pipeline spans underneath. *)

let ppf = Format.std_formatter

let targets : (string * string * (unit -> unit)) list =
  [ ("fig2a", "PROJECT micro-benchmark (Fig 2a) + JOIN (Fig 2b)",
     fun () -> Experiments.Fig2_micro.run ppf);
    ("fig3", "PageRank motivation across systems (Fig 3)",
     fun () -> Experiments.Fig3_pagerank_motivation.run ppf);
    ("fig7", "TPC-H Q17 dynamic mapping (Fig 7)",
     fun () -> Experiments.Fig7_tpch.run ppf);
    ("fig8", "PageRank mapping + resource efficiency (Fig 8)",
     fun () -> Experiments.Fig8_pagerank_mapping.run ppf);
    ("fig9", "cross-community PageRank combinations (Fig 9)",
     fun () -> Experiments.Fig9_cross_community.run ppf);
    ("fig10", "NetFlix generated-code overhead (Fig 10)",
     fun () -> Experiments.Fig10_netflix_overhead.run ppf);
    ("fig11", "PageRank generated-code overhead (Fig 11)",
     fun () -> Experiments.Fig11_pagerank_overhead.run ppf);
    ("fig12", "operator merging and shared scans (Fig 12)",
     fun () -> Experiments.Fig12_merging.run ppf);
    ("fig13", "DAG partitioning runtime (Fig 13)",
     fun () -> Experiments.Fig13_partitioning.run ppf);
    ("fig14", "automated mapping quality (Fig 14)",
     fun () -> Experiments.Fig14_mapping_quality.run ppf);
    ("fig15", "SSSP and k-means automated mapping (Fig 15)",
     fun () -> Experiments.Fig15_new_workflows.run ppf);
    ("table1", "calibrated rate parameters (Table 1)",
     fun () -> Experiments.Tables.table1 ppf);
    ("table3", "system feature matrix (Table 3)",
     fun () -> Experiments.Tables.table3 ppf);
    ("sec7", "student JOIN baseline anecdote (Sec 7)",
     fun () -> Experiments.Tables.student_join ppf);
    ("ablations", "beyond-paper design-choice ablations",
     fun () -> Experiments.Ablations.run ppf);
    ("faults", "injected worker failure vs analytic recovery model",
     fun () -> Experiments.Fault_recovery.run ppf) ]

(* fig2b is part of the fig2a module; accept both names *)
let resolve name = if name = "fig2b" then "fig2a" else name

(* ---- Bechamel micro-benchmarks ----
   (1) exhaustive vs dynamic partitioning on NetFlix-prefix DAGs (real
       time, Fig 13's measurement);
   (2) the relational kernels every engine executes on. *)

let bechamel () =
  let open Bechamel in
  let m = Musketeer.create ~cluster:(Experiments.Common.ec2 16) () in
  let hdfs = Experiments.Common.load_netflix ~movies:17000 in
  let full = Workloads.Workflows.netflix_extended () in
  let prefix x = Experiments.Fig13_partitioning.prefix_graph full x in
  let profile = Musketeer.profile m in
  let backends = Engines.Backend.all in
  let partition_test algo_name algo x =
    let g = prefix x in
    let est = Musketeer.estimator m ~workflow:"bench" ~hdfs g in
    Test.make
      ~name:(Printf.sprintf "%s/%d-ops" algo_name x)
      (Staged.stage (fun () -> ignore (algo ~profile ~est ~backends g)))
  in
  let partition_tests =
    List.concat_map
      (fun x ->
         partition_test "dynamic" Musketeer.Partitioner.dynamic x
         ::
         (if x <= 10 then
            [ partition_test "exhaustive" Musketeer.Partitioner.exhaustive x ]
          else []))
      [ 4; 8; 10; 14; 18 ]
  in
  let kernel_tests =
    let open Relation in
    let schema =
      Schema.make [ { Schema.name = "k"; ty = Value.Tint };
                    { Schema.name = "v"; ty = Value.Tint } ]
    in
    let table n =
      Table.create_unchecked schema
        (Array.init n (fun i -> [| Value.Int (i mod 97); Value.Int i |]))
    in
    let t = table 10_000 and small = table 500 in
    [ Test.make ~name:"select/10k"
        (Staged.stage (fun () ->
             ignore (Kernel.select t Expr.(col "v" > int 5000))));
      Test.make ~name:"hash-join/10k x 500"
        (Staged.stage (fun () ->
             ignore (Kernel.join t small ~left_key:"k" ~right_key:"k")));
      Test.make ~name:"group-by/10k"
        (Staged.stage (fun () ->
             ignore
               (Kernel.group_by t ~keys:[ "k" ]
                  ~aggs:[ Aggregate.make (Aggregate.Sum "v") ~as_name:"s" ])));
      Test.make ~name:"distinct/10k"
        (Staged.stage (fun () -> ignore (Kernel.distinct t))) ]
  in
  let test =
    Test.make_grouped ~name:"musketeer"
      [ Test.make_grouped ~name:"partitioning" partition_tests;
        Test.make_grouped ~name:"kernels" kernel_tests ]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances test in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false
         ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
       let estimate =
         match Analyze.OLS.estimates result with
         | Some [ est ] -> Printf.sprintf "%12.1f ns/run" est
         | _ -> "(no estimate)"
       in
       rows := (name, estimate) :: !rows)
    results;
  List.iter
    (fun (name, est) -> Printf.printf "%-36s %s\n" name est)
    (List.sort compare !rows)

(* ---- columnar vs row kernel benchmark ----

   Times each hot kernel on NetFlix-scale synthetic tables (CROSS on
   k-means-shaped ones: 4 000 points x 100 centroids; JOIN → SELECT
   on k-means' arg-min step, the whole arg-min diamond, and its
   distance expression alone) two ways: the row engine with the
   columnar gate off (the pre-columnar baseline) and the columnar
   path. Both outputs must be byte-identical (CSV
   compare; fatal otherwise). Ratios are row-baseline / columnar —
   ≥ 1.0 means the vectorized path is no slower than the engine it
   replaced. Writes BENCH_kernels.json; with MUSKETEER_BENCH_GATE=1
   (CI) the run fails if any ratio drops below 1.0. *)

let kernels () =
  let open Relation in
  (* pairs per block, as in the columnar kernels *)
  let pair_block = Table.block in
  let ratings_n = 400_000 and movies_n = 17_000 in
  let ratings =
    let schema =
      Schema.make
        [ { Schema.name = "user"; ty = Value.Tint };
          { Schema.name = "movie"; ty = Value.Tint };
          { Schema.name = "rating"; ty = Value.Tint } ]
    in
    Table.create_unchecked schema
      (Array.init ratings_n (fun i ->
           [| Value.Int (i * 7919 mod 480_189);
              Value.Int (i * 104_729 mod movies_n);
              Value.Int (1 + (i * 31 mod 5)) |]))
  in
  let movies =
    let schema =
      Schema.make
        [ { Schema.name = "movie"; ty = Value.Tint };
          { Schema.name = "year"; ty = Value.Tint } ]
    in
    Table.create_unchecked schema
      (Array.init movies_n (fun i ->
           [| Value.Int i; Value.Int (1950 + (i mod 60)) |]))
  in
  let points, centroids =
    let xy id =
      Schema.make
        [ { Schema.name = id; ty = Value.Tint };
          { Schema.name = "x"; ty = Value.Tfloat };
          { Schema.name = "y"; ty = Value.Tfloat } ]
    in
    let rows n =
      Array.init n (fun i ->
          [| Value.Int i; Value.Float (float_of_int (i * 37 mod 101));
             Value.Float (float_of_int (i * 53 mod 103)) |])
    in
    ( Table.create_unchecked (xy "pid") (rows 4_000),
      Table.create_unchecked (xy "cid") (rows 100) )
  in
  (* k-means' arg-min: 1,200 points x 100 centroids, each pair's
     distance, each point's nearest distance, then the JOIN back and
     its SELECT. The gate off refuses the fused kernel, so the row
     side is the serial JOIN followed by the serial SELECT. *)
  let dists, nearest =
    Column.with_enabled true (fun () ->
        let pts, cents =
          Workloads.Datagen.kmeans_points ~points:1200 ~k:100 ()
        in
        let dists =
          Kernel.map_column
            (Kernel.cross_join pts.Workloads.Datagen.table
               cents.Workloads.Datagen.table)
            ~target:"dist"
            ~expr:
              Expr.(
                ((col "px" - col "cx") * (col "px" - col "cx"))
                + ((col "py" - col "cy") * (col "py" - col "cy")))
        in
        let nearest =
          Kernel.rename_column ~from_:"pid" ~to_:"pid2"
            (Kernel.group_by dists ~keys:[ "pid" ]
               ~aggs:[ Aggregate.make (Aggregate.Min "dist") ~as_name:"bd" ])
        in
        (dists, nearest))
  in
  let join_select () =
    let pred = Expr.(col "dist" = col "bd") in
    match
      Columnar.try_join_select dists nearest ~left_key:"pid"
        ~right_key:"pid2" ~pred
    with
    | Some js -> js.table
    | None ->
      Kernel.select
        (Kernel.join dists nearest ~left_key:"pid" ~right_key:"pid2")
        pred
  in
  (* the whole arg-min diamond over the same 1,200 x 100 pairs. The gate
     off refuses the diamond's kernel, so the row side is the serial
     CROSS, MAP, GROUP BY, JOIN and SELECT *)
  let argmin () =
    let pts, cents = Workloads.Datagen.kmeans_points ~points:1200 ~k:100 () in
    let pts = pts.Workloads.Datagen.table
    and cents = cents.Workloads.Datagen.table in
    let expr =
      Expr.(
        ((col "px" - col "cx") * (col "px" - col "cx"))
        + ((col "py" - col "cy") * (col "py" - col "cy")))
    in
    let best groups = Kernel.rename_column ~from_:"pid" ~to_:"pid2" groups in
    fun () ->
      match
        Columnar.try_argmin pts cents ~target:"dist" ~expr ~key:"pid"
          ~min_as:"bd" ~min_column:"bd"
      with
      | Some a -> (Columnar.argmin_join a (best a.groups) ~right_key:"pid2").table
      | None ->
        let d =
          Kernel.map_column (Kernel.cross_join pts cents) ~target:"dist" ~expr
        in
        let groups =
          Kernel.group_by d ~keys:[ "pid" ]
            ~aggs:[ Aggregate.make (Aggregate.Min "dist") ~as_name:"bd" ]
        in
        Kernel.select
          (Kernel.join d (best groups) ~left_key:"pid" ~right_key:"pid2")
          Expr.(col "dist" = col "bd")
  in
  (* k-means' distance alone over the same 1,200 x 100 pairs, in the
     CROSS's order: with the gate on, one compiled program run on each
     block of 256 pairs, every column read through the block's rows;
     with it off, [Expr.compile] on each pair's row *)
  let expr () =
    let pts, cents = Workloads.Datagen.kmeans_points ~points:1200 ~k:100 () in
    let pts = pts.Workloads.Datagen.table
    and cents = cents.Workloads.Datagen.table in
    let schema = Schema.concat (Table.schema pts) (Table.schema cents) in
    let expr =
      Expr.(
        ((col "px" - col "cx") * (col "px" - col "cx"))
        + ((col "py" - col "cy") * (col "py" - col "cy")))
    in
    let nr = Table.row_count cents in
    let pairs = Table.row_count pts * nr in
    let dists out =
      Table.of_columns
        (Schema.make [ { Schema.name = "dist"; ty = Value.Tfloat } ])
        [| Column.make (Column.Floats out) |]
    in
    fun () ->
      let out = Array.create_float pairs in
      if Column.enabled () then begin
        let prog = Option.get (Vector.compile schema expr) in
        let cols = Array.append (Table.columns pts) (Table.columns cents) in
        let nleft = Schema.arity (Table.schema pts) in
        let lbuf = Array.make pair_block 0 and rbuf = Array.make pair_block 0 in
        let sel i = Vector.Sparse (if i < nleft then lbuf else rbuf) in
        let p = ref 0 and l = ref 0 and r = ref 0 in
        while !p < pairs do
          let n = min pair_block (pairs - !p) in
          for k = 0 to n - 1 do
            lbuf.(k) <- !l;
            rbuf.(k) <- !r;
            incr r;
            if !r = nr then begin
              r := 0;
              incr l
            end
          done;
          (match Vector.run prog cols ~len:n ~sel with
           | Vector.VFloat a -> Array.blit a 0 out !p n
           | _ -> assert false);
          p := !p + n
        done
      end
      else begin
        let f = Expr.compile schema expr in
        let lrows = Table.rows pts and rrows = Table.rows cents in
        for p = 0 to pairs - 1 do
          match f (Array.append lrows.(p / nr) rrows.(p mod nr)) with
          | Value.Float x -> out.(p) <- x
          | _ -> assert false
        done
      end;
      dists out
  in
  (* NetFlix's [cand] chain at its CLI shape: 12,480 [sims] rows (120
     movies x 104 candidates) JOIN 2,500 ratings of 208 users on movie,
     about 260,000 pairs, then MAP [score := sim * rating] and GROUP BY
     user, r_movie SUM(score). The gate on runs the JOIN's matches
     through the MAP → GROUP BY kernel, so no pair is built; off, the
     serial JOIN, MAP and GROUP BY *)
  let join_map_group_by =
    let schema cols =
      Schema.make (List.map (fun (name, ty) -> { Schema.name; ty }) cols)
    in
    let sims =
      Table.create_unchecked
        (schema
           [ ("movie", Value.Tint); ("r_movie", Value.Tint);
             ("sim", Value.Tfloat) ])
        (Array.init (120 * 104) (fun i ->
             [| Value.Int (i / 104); Value.Int (i mod 104 * 7 mod 120);
                Value.Float (float_of_int (i * 37 mod 1009) /. 7.) |]))
    in
    let ratings =
      Table.create_unchecked
        (schema
           [ ("user", Value.Tint); ("movie", Value.Tint);
             ("rating", Value.Tint) ])
        (Array.init 2_500 (fun i ->
             [| Value.Int (i * 7919 mod 208); Value.Int (i * 104_729 mod 120);
                Value.Int (1 + (i * 31 mod 5)) |]))
    in
    let expr = Expr.(col "sim" * col "rating") in
    let keys = [ "user"; "r_movie" ]
    and aggs = [ Aggregate.make (Aggregate.Sum "score") ~as_name:"total" ] in
    fun () ->
      let cand = Kernel.join sims ratings ~left_key:"movie" ~right_key:"movie" in
      match Columnar.try_map_group_by cand ~target:"score" ~expr ~keys ~aggs with
      | Some k -> k.grouped
      | None ->
        Kernel.group_by
          (Kernel.map_column cand ~target:"score" ~expr)
          ~keys ~aggs
  in
  let kernels =
    [ ("select", fun () -> Kernel.select ratings Expr.(col "rating" >= int 4));
      ("project", fun () -> Kernel.project ratings [ "user"; "rating" ]);
      ("map", fun () ->
          Kernel.map_column ratings ~target:"centered"
            ~expr:Expr.(col "rating" - int 3));
      ("join", fun () ->
          Kernel.join ratings movies ~left_key:"movie" ~right_key:"movie");
      ("group_by", fun () ->
          Kernel.group_by ratings ~keys:[ "movie" ]
            ~aggs:
              [ Aggregate.make (Aggregate.Sum "rating") ~as_name:"total";
                Aggregate.make Aggregate.Count ~as_name:"n" ]);
      ("sort", fun () -> Table.sort_by ratings [ "movie"; "user" ]);
      (* last, so the heap they leave behind does not slow the rows
         above *)
      ("group_by2", fun () ->
          Kernel.group_by ratings ~keys:[ "user"; "movie" ]
            ~aggs:
              [ Aggregate.make (Aggregate.Sum "rating") ~as_name:"total";
                Aggregate.make Aggregate.Count ~as_name:"n" ]);
      (* k-means' assignment step: every point against every centroid *)
      ("cross", fun () -> Kernel.cross_join points centroids);
      ("join_select", join_select);
      ("argmin", argmin ());
      ("expr", expr ());
      ("join_map_group_by", join_map_group_by) ]
  in
  let reps = 5 in
  (* each kernel's repetitions start on a fully collected heap, so a
     figure does not swing with the garbage the rows before it left *)
  let best_of ~columnar f =
    Gc.full_major ();
    let best = ref infinity and out = ref None in
    for _ = 1 to reps do
      let result, s =
        Obs.Trace.time (fun () -> Column.with_enabled columnar f)
      in
      if s < !best then best := s;
      out := Some result
    done;
    (Option.get !out, !best)
  in
  let gate = Sys.getenv_opt "MUSKETEER_BENCH_GATE" = Some "1" in
  Printf.printf "columnar vs row kernels (%d rows, best of %d)\n" ratings_n
    reps;
  Printf.printf "%-10s %12s %12s %8s  %s\n" "kernel" "row" "columnar"
    "ratio" "identical";
  (* a columnar timing under this is a zero-copy rewrite (PROJECT
     reduces to column aliasing): a ratio against a ~0s denominator is
     a measurement artifact, not a speedup, so such kernels report
     [zero_copy] with null ratios and the gate skips them *)
  let zero_copy_threshold_s = 1e-4 in
  let results =
    List.map
      (fun (name, f) ->
         let row_out, row_s = best_of ~columnar:false f in
         let col_out, col_s = best_of ~columnar:true f in
         let identical = Table.to_csv row_out = Table.to_csv col_out in
         let zero_copy = col_s < zero_copy_threshold_s in
         let ratio = row_s /. col_s in
         Printf.printf "%-10s %10.1fms %10.1fms %s  %b\n%!" name
           (1000. *. row_s) (1000. *. col_s)
           (if zero_copy then "  0-copy" else Printf.sprintf "%7.2fx" ratio)
           identical;
         if not identical then begin
           Printf.eprintf "FATAL: %s columnar output differs from row engine\n"
             name;
           exit 1
         end;
         (name, row_s, col_s, ratio, zero_copy))
      kernels
  in
  let json =
    let b = Buffer.create 1024 in
    Buffer.add_string b "{\n";
    Buffer.add_string b (Printf.sprintf "  \"rows\": %d,\n" ratings_n);
    Buffer.add_string b (Printf.sprintf "  \"reps\": %d,\n" reps);
    Buffer.add_string b "  \"kernels\": [\n";
    List.iteri
      (fun i (name, row_s, col_s, ratio, zero_copy) ->
         Buffer.add_string b
           (Printf.sprintf
              "    {\"kernel\": %S, \"row_serial_s\": %.6f, \
               \"columnar_s\": %.6f, \"zero_copy\": %b, \
               \"ratio\": %s}%s\n"
              name row_s col_s zero_copy
              (if zero_copy then "null" else Printf.sprintf "%.3f" ratio)
              (if i = List.length results - 1 then "" else ",")))
      results;
    Buffer.add_string b "  ]\n}\n";
    Buffer.contents b
  in
  Out_channel.with_open_text "BENCH_kernels.json" (fun oc ->
      Out_channel.output_string oc json);
  Printf.printf "wrote BENCH_kernels.json\n";
  if gate then begin
    let slow =
      List.filter
        (fun (_, _, _, r, zero_copy) -> (not zero_copy) && r < 1.0)
        results
    in
    List.iter
      (fun (name, _, _, r, _) ->
         Printf.eprintf "GATE: %s columnar/row ratio below 1.0 (%.2f)\n" name
           r)
      slow;
    if slow <> [] then exit 1;
    Printf.printf
      "ratio gate passed: every timed kernel >= 1.0x vs row baseline \
       (zero-copy kernels skipped)\n"
  end

(* ---- runtime supervision benchmark ----

   Three scenarios exercising the supervisor end-to-end and checking
   the executor's accounting against the analytic model:

   (1) speculation: a straggler*4 on the planned (Hadoop) job races a
       speculative duplicate on Metis; the duplicate wins, and the
       observed makespan and wasted seconds must equal
       Faults.speculate's prediction computed from independently
       measured quantities (observed == predicted);
   (2) circuit breaker: repeated engine failures quarantine Metis,
       the planner avoids it, and after the cool-down a probe
       re-admits it;
   (3) adaptive re-planning: a heavy GROUP BY collapses the modeled
       64 MB input to almost nothing, the size misprediction crosses
       the threshold and the remaining DAG suffix is re-planned.

   Writes BENCH_supervision.json. *)

let supervision_bench () =
  let open Relation in
  let kv_schema =
    Schema.make
      [ { Schema.name = "k"; ty = Value.Tint };
        { Schema.name = "v"; ty = Value.Tint } ]
  in
  let kv_table rows =
    Table.create kv_schema
      (List.map (fun (k, v) -> [| Value.Int k; Value.Int v |]) rows)
  in
  let hdfs_with rows =
    let hdfs = Engines.Hdfs.create () in
    Engines.Hdfs.put hdfs "r" ~modeled_mb:64. (kv_table rows);
    hdfs
  in
  (* select + group: one shuffle, a single job on MapReduce engines *)
  let one_shuffle_graph () =
    let b = Ir.Builder.create () in
    let r = Ir.Builder.input b "r" in
    let s = Ir.Builder.select b ~pred:Expr.(col "v" > int 4) r in
    let g =
      Ir.Builder.group_by b ~name:"out" ~keys:[ "k" ]
        ~aggs:[ Aggregate.make (Aggregate.Sum "v") ~as_name:"v" ]
        s
    in
    Ir.Builder.finish b ~outputs:[ g ]
  in
  (* group + distinct: two shuffles, a two-job plan on Hadoop *)
  let two_shuffle_graph () =
    let b = Ir.Builder.create () in
    let r = Ir.Builder.input b "r" in
    let g =
      Ir.Builder.group_by b ~keys:[ "k" ]
        ~aggs:[ Aggregate.make (Aggregate.Sum "v") ~as_name:"v" ]
        r
    in
    let d = Ir.Builder.distinct b ~name:"out" g in
    Ir.Builder.finish b ~outputs:[ d ]
  in
  let m = Musketeer.create ~cluster:(Experiments.Common.ec2 16) () in
  let counter name = Obs.Metrics.counter Obs.Metrics.default name in
  let run ?faults ?(supervision = Musketeer.Supervisor.disabled)
      ?(candidates = []) ~backends ~workflow graph rows =
    let hdfs = hdfs_with rows in
    let plan, g' =
      match Musketeer.plan m ~backends ~workflow ~hdfs graph with
      | Some p -> p
      | None ->
        Printf.eprintf "FATAL: %s does not plan\n" workflow;
        exit 1
    in
    let candidates = if candidates = [] then backends else candidates in
    match
      Musketeer.execute_plan ~recovery:Musketeer.Recovery.none ~supervision
        ?inject:(Option.map Engines.Injector.create faults) ~candidates
        ~record_history:false m ~workflow ~hdfs ~graph:g' plan
    with
    | Ok r -> (plan, g', hdfs, r)
    | Error e ->
      Printf.eprintf "FATAL: %s failed: %s\n" workflow
        (Engines.Report.error_to_string e);
      exit 1
  in
  let out_csv (r : Musketeer.Executor.result) =
    match List.assoc_opt "out" r.Musketeer.Executor.outputs with
    | Some t -> Table.to_csv (Table.sort_by t [ "k"; "v" ])
    | None ->
      Printf.eprintf "FATAL: no \"out\" relation\n";
      exit 1
  in
  let rows = List.init 60 (fun i -> (i mod 6, i)) in

  (* -- scenario 1: speculation, observed vs predicted -- *)
  Obs.Metrics.reset Obs.Metrics.default;
  let factor = 1.25 in
  let straggler4 =
    { Engines.Faults.seed = 42; probability = 1.;
      faults = [ Engines.Faults.Straggler { slowdown = 4. } ] }
  in
  let supervision =
    { Musketeer.Supervisor.deadline_factor = Some factor;
      workflow_deadline_s = None; speculate = true; replan_rel_error = None }
  in
  let _, _, _, fault_free =
    run ~backends:[ Engines.Backend.Hadoop ] ~workflow:"spec-base"
      (one_shuffle_graph ()) rows
  in
  let _, _, _, stragglered =
    run ~faults:straggler4 ~backends:[ Engines.Backend.Hadoop ]
      ~workflow:"spec-straggler" (one_shuffle_graph ()) rows
  in
  let plan, g', hdfs0, supervised =
    run ~faults:straggler4 ~supervision
      ~candidates:[ Engines.Backend.Hadoop; Engines.Backend.Metis ]
      ~backends:[ Engines.Backend.Hadoop ] ~workflow:"spec-sup"
      (one_shuffle_graph ()) rows
  in
  let _, _, _, metis_alone =
    run ~backends:[ Engines.Backend.Metis ] ~workflow:"spec-alt"
      (one_shuffle_graph ()) rows
  in
  (* the analytic race, from independently measured quantities *)
  let predicted_s =
    let est = Musketeer.estimator m ~workflow:"spec-sup" ~hdfs:hdfs0 g' in
    let backend, ids = List.hd plan.Musketeer.Partitioner.jobs in
    Musketeer.Cost.seconds
      (Musketeer.Cost.job_cost ~profile:(Musketeer.profile m) ~est
         backend ids)
  in
  let race =
    Engines.Faults.speculate
      ~straggler_s:(4. *. fault_free.Musketeer.Executor.makespan_s)
      ~launch_s:(factor *. predicted_s)
      ~alt_s:metis_alone.Musketeer.Executor.makespan_s
  in
  let observed_s = supervised.Musketeer.Executor.makespan_s in
  let predicted_race_s = race.Engines.Faults.winner_makespan_s in
  let observed_waste_s =
    Option.value ~default:0.
      (Obs.Metrics.gauge Obs.Metrics.default "supervisor.speculation_wasted_s")
  in
  let spec_identical = out_csv fault_free = out_csv supervised in
  let spec_match =
    Float.abs (observed_s -. predicted_race_s) < 1e-6
    && Float.abs (observed_waste_s -. race.Engines.Faults.wasted_s) < 1e-6
  in
  Printf.printf "speculation under straggler*4 (deadline factor %.2f)\n"
    factor;
  Printf.printf "  %-28s %10.2fs\n" "fault-free makespan"
    fault_free.Musketeer.Executor.makespan_s;
  Printf.printf "  %-28s %10.2fs\n" "straggler, no supervision"
    stragglered.Musketeer.Executor.makespan_s;
  Printf.printf "  %-28s %10.2fs\n" "straggler + speculation" observed_s;
  Printf.printf "  %-28s %10.2fs\n" "predicted (Faults.speculate)"
    predicted_race_s;
  Printf.printf "  %-28s %10.2fs (predicted %.2fs)\n" "wasted copy work"
    observed_waste_s race.Engines.Faults.wasted_s;
  Printf.printf "  wins %d/%d  identical %b  observed==predicted %b\n%!"
    (counter "supervisor.speculation_wins")
    (counter "supervisor.speculations")
    spec_identical spec_match;
  if not (spec_identical && spec_match) then begin
    Printf.eprintf "FATAL: speculation accounting diverged\n";
    exit 1
  end;

  (* -- scenario 2: circuit breaker -- *)
  Obs.Metrics.reset Obs.Metrics.default;
  let breaker_result =
    let breaker =
      Engines.Breaker.create ~threshold:2 ~window:4 ~cooldown:2 ()
    in
    let metis = Engines.Backend.Metis and hadoop = Engines.Backend.Hadoop in
    let planned_on backend =
      let hdfs = hdfs_with rows in
      match
        Musketeer.plan m ~backends:[ metis; hadoop ] ~breaker ~workflow:"brk"
          ~hdfs (one_shuffle_graph ())
      with
      | Some (p, _) ->
        List.exists
          (fun (b, _) -> Engines.Backend.equal b backend)
          p.Musketeer.Partitioner.jobs
      | None -> false
    in
    let healthy = planned_on metis in
    Engines.Breaker.record_failure breaker metis;
    Engines.Breaker.record_failure breaker metis;
    let quarantined = Engines.Breaker.quarantined breaker metis in
    let avoided = not (planned_on metis) in
    (* outcomes elsewhere advance the logical clock past the cool-down *)
    Engines.Breaker.record_success breaker hadoop;
    Engines.Breaker.record_success breaker hadoop;
    let half_open =
      Engines.Breaker.state breaker metis = Engines.Breaker.Half_open
    in
    let readmitted = planned_on metis in
    Engines.Breaker.record_success breaker metis;
    let reclosed =
      Engines.Breaker.state breaker metis = Engines.Breaker.Closed
    in
    Printf.printf
      "\ncircuit breaker (threshold 2, window 4, cool-down 2)\n\
      \  planned while healthy %b -> quarantined %b -> avoided by planner \
       %b\n\
      \  half-open after cool-down %b -> re-admitted %b -> re-closed %b\n\
      \  trips %d  probes %d  re-closed %d\n%!"
      healthy quarantined avoided half_open readmitted reclosed
      (counter "breaker.trips") (counter "breaker.probes")
      (counter "breaker.reclosed");
    let ok =
      healthy && quarantined && avoided && half_open && readmitted && reclosed
    in
    if not ok then begin
      Printf.eprintf "FATAL: breaker scenario diverged\n";
      exit 1
    end;
    (counter "breaker.trips", counter "breaker.probes",
     counter "breaker.reclosed")
  in

  (* -- scenario 3: adaptive re-planning -- *)
  Obs.Metrics.reset Obs.Metrics.default;
  let replan_rows = List.init 80 (fun i -> (i mod 2, i mod 3)) in
  let replan_sup =
    { Musketeer.Supervisor.deadline_factor = None; workflow_deadline_s = None;
      speculate = false; replan_rel_error = Some 0.5 }
  in
  let _, _, _, plain =
    run ~backends:[ Engines.Backend.Hadoop ] ~workflow:"replan-base"
      (two_shuffle_graph ()) replan_rows
  in
  let _, _, _, replanned =
    run ~supervision:replan_sup
      ~candidates:[ Engines.Backend.Hadoop; Engines.Backend.Metis ]
      ~backends:[ Engines.Backend.Hadoop ] ~workflow:"replan-sup"
      (two_shuffle_graph ()) replan_rows
  in
  let mispredictions = counter "supervisor.mispredictions" in
  let replans = counter "supervisor.replans" in
  let replan_delta_s =
    Option.value ~default:0.
      (Obs.Metrics.gauge Obs.Metrics.default "supervisor.replan_delta_s")
  in
  let replan_identical = out_csv plain = out_csv replanned in
  Printf.printf
    "\nadaptive re-planning (threshold 0.5, 64 modeled MB collapsing)\n\
    \  static plan makespan %10.2fs\n\
    \  replanned   makespan %10.2fs\n\
    \  mispredictions %d  replans %d  predicted delta %.2fs  identical %b\n%!"
    plain.Musketeer.Executor.makespan_s
    replanned.Musketeer.Executor.makespan_s mispredictions replans
    replan_delta_s replan_identical;
  if not (replans >= 1 && replan_identical) then begin
    Printf.eprintf "FATAL: replan scenario diverged\n";
    exit 1
  end;

  let trips, probes, reclosed_n = breaker_result in
  let json =
    let b = Buffer.create 1024 in
    Buffer.add_string b "{\n  \"speculation\": {\n";
    Buffer.add_string b
      (Printf.sprintf "    \"fault_free_s\": %.6f,\n"
         fault_free.Musketeer.Executor.makespan_s);
    Buffer.add_string b
      (Printf.sprintf "    \"straggler_s\": %.6f,\n"
         stragglered.Musketeer.Executor.makespan_s);
    Buffer.add_string b
      (Printf.sprintf "    \"speculated_s\": %.6f,\n" observed_s);
    Buffer.add_string b
      (Printf.sprintf "    \"predicted_s\": %.6f,\n" predicted_race_s);
    Buffer.add_string b
      (Printf.sprintf "    \"wasted_s\": %.6f,\n" observed_waste_s);
    Buffer.add_string b
      (Printf.sprintf "    \"predicted_wasted_s\": %.6f,\n"
         race.Engines.Faults.wasted_s);
    Buffer.add_string b
      (Printf.sprintf "    \"observed_equals_predicted\": %b,\n" spec_match);
    Buffer.add_string b
      (Printf.sprintf "    \"outputs_identical\": %b\n  },\n" spec_identical);
    Buffer.add_string b "  \"breaker\": {\n";
    Buffer.add_string b (Printf.sprintf "    \"trips\": %d,\n" trips);
    Buffer.add_string b (Printf.sprintf "    \"probes\": %d,\n" probes);
    Buffer.add_string b (Printf.sprintf "    \"reclosed\": %d\n  },\n" reclosed_n);
    Buffer.add_string b "  \"replanning\": {\n";
    Buffer.add_string b
      (Printf.sprintf "    \"static_s\": %.6f,\n"
         plain.Musketeer.Executor.makespan_s);
    Buffer.add_string b
      (Printf.sprintf "    \"replanned_s\": %.6f,\n"
         replanned.Musketeer.Executor.makespan_s);
    Buffer.add_string b
      (Printf.sprintf "    \"mispredictions\": %d,\n" mispredictions);
    Buffer.add_string b (Printf.sprintf "    \"replans\": %d,\n" replans);
    Buffer.add_string b
      (Printf.sprintf "    \"predicted_delta_s\": %.6f,\n" replan_delta_s);
    Buffer.add_string b
      (Printf.sprintf "    \"outputs_identical\": %b\n  }\n}\n"
         replan_identical);
    Buffer.contents b
  in
  Out_channel.with_open_text "BENCH_supervision.json" (fun oc ->
      Out_channel.output_string oc json);
  Printf.printf "wrote BENCH_supervision.json\n"

(* ---- continuous calibration benchmark ----

   The same per-engine workflow suite runs three times against a fresh
   ledger. Run 1 executes uncalibrated and appends its records; each
   later run refits the per-engine correction factors from the ledger
   first, so the |relative error| p50/p90 must shrink strictly
   run-over-run. A control pass with calibration disabled must stay
   flat, and outputs must be byte-identical across every run of both
   modes — calibration may only touch the cost model, never results.

   Each workflow is two identical disconnected branches: the
   partitioner has to cut them into two jobs on the pinned engine, so
   every engine clears Calibrate's min-sample threshold on the very
   first run. Writes BENCH_calibration.json. *)

let calibration_bench () =
  let open Relation in
  let kv_schema =
    Schema.make
      [ { Schema.name = "k"; ty = Value.Tint };
        { Schema.name = "v"; ty = Value.Tint } ]
  in
  let rows = List.init 60 (fun i -> (i mod 6, i)) in
  let kv_table () =
    Table.create kv_schema
      (List.map (fun (k, v) -> [| Value.Int k; Value.Int v |]) rows)
  in
  let hdfs_with () =
    let hdfs = Engines.Hdfs.create () in
    Engines.Hdfs.put hdfs "r1" ~modeled_mb:64. (kv_table ());
    Engines.Hdfs.put hdfs "r2" ~modeled_mb:64. (kv_table ());
    hdfs
  in
  let twin_graph () =
    let b = Ir.Builder.create () in
    let branch input out =
      let r = Ir.Builder.input b input in
      let s = Ir.Builder.select b ~pred:Expr.(col "v" > int 4) r in
      Ir.Builder.group_by b ~name:out ~keys:[ "k" ]
        ~aggs:[ Aggregate.make (Aggregate.Sum "v") ~as_name:"v" ]
        s
    in
    let o1 = branch "r1" "out1" in
    let o2 = branch "r2" "out2" in
    Ir.Builder.finish b ~outputs:[ o1; o2 ]
  in
  let engines =
    [ Engines.Backend.Hadoop; Engines.Backend.Spark;
      Engines.Backend.Naiad; Engines.Backend.Metis ]
  in
  let runs = 3 in
  let m = Musketeer.create ~cluster:(Experiments.Common.ec2 16) () in
  let percentile q xs =
    let a = Array.of_list (List.sort compare xs) in
    let n = Array.length a in
    if n = 0 then 0.
    else begin
      let idx = q *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor idx) in
      let hi = int_of_float (Float.ceil idx) in
      a.(lo) +. ((idx -. float_of_int lo) *. (a.(hi) -. a.(lo)))
    end
  in
  let out_csv name (r : Musketeer.Executor.result) =
    match List.assoc_opt name r.Musketeer.Executor.outputs with
    | Some t -> Table.to_csv (Table.sort_by t [ "k"; "v" ])
    | None ->
      Printf.eprintf "FATAL: no %S relation\n" name;
      exit 1
  in
  (* one pass over the suite: execute every engine's workflow, append a
     ledger record per workflow, return (p50, p90, outputs-csv) *)
  let run_suite m ~ledger =
    Obs.Metrics.reset Obs.Metrics.default;
    let outputs = ref [] in
    List.iter
      (fun backend ->
         let workflow = "cal-" ^ Engines.Backend.name backend in
         let hdfs = hdfs_with () in
         let plan, g' =
           match
             Musketeer.plan m ~backends:[ backend ] ~workflow ~hdfs
               (twin_graph ())
           with
           | Some p -> p
           | None ->
             Printf.eprintf "FATAL: %s does not plan\n" workflow;
             exit 1
         in
         if List.length plan.Musketeer.Partitioner.jobs < 2 then begin
           Printf.eprintf
             "FATAL: %s planned %d job(s); the twin branches must give \
              two samples per engine\n"
             workflow
             (List.length plan.Musketeer.Partitioner.jobs);
           exit 1
         end;
         let since = Obs.Ledger.mark Obs.Metrics.default in
         match
           Musketeer.execute_plan ~record_history:false m ~workflow ~hdfs
             ~graph:g' plan
         with
         | Error e ->
           Printf.eprintf "FATAL: %s failed: %s\n" workflow
             (Engines.Report.error_to_string e);
           exit 1
         | Ok r ->
           let partition =
             List.map
               (fun (b, ids) -> (Engines.Backend.name b, ids))
               plan.Musketeer.Partitioner.jobs
           in
           Obs.Ledger.append ~filename:ledger
             (Obs.Ledger.snapshot ~since ~workflow
                ~ir_hash:(Ir.Dag.canonical_hash g') ~partition
                ~makespan_s:r.Musketeer.Executor.makespan_s ());
           outputs :=
             (workflow, out_csv "out1" r ^ out_csv "out2" r) :: !outputs)
      engines;
    let errors =
      List.filter_map
        (fun (p : Obs.Metrics.prediction) ->
           if p.observed_s > 0. then
             Some (Float.abs (p.predicted_s -. p.observed_s) /. p.observed_s)
           else None)
        (Obs.Metrics.predictions Obs.Metrics.default)
    in
    (percentile 0.5 errors, percentile 0.9 errors, List.rev !outputs)
  in
  (* three runs against a fresh ledger; refit factors before each
     (none without calibration) *)
  let run_mode ~calibrate =
    let ledger = Filename.temp_file "bench_calibration" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove ledger with Sys_error _ -> ())
    @@ fun () ->
    let results = ref [] in
    for _run = 1 to runs do
      let factors =
        if calibrate then
          Musketeer.Calibrate.of_ledger (Obs.Ledger.load ~filename:ledger ())
        else []
      in
      results :=
        run_suite (Musketeer.with_calibration m factors) ~ledger :: !results
    done;
    let factors =
      Musketeer.Calibrate.fit (Obs.Ledger.load ~filename:ledger ())
    in
    (List.rev !results, factors)
  in
  let calibrated, factors = run_mode ~calibrate:true in
  let uncalibrated, _ = run_mode ~calibrate:false in
  Printf.printf "cost-model calibration over %d runs (engines: %s)\n" runs
    (String.concat ", " (List.map Engines.Backend.name engines));
  Printf.printf "%-6s %14s %14s %16s %16s\n" "run" "cal p50" "cal p90"
    "no-cal p50" "no-cal p90";
  List.iteri
    (fun i ((cp50, cp90, _), (up50, up90, _)) ->
       Printf.printf "%-6d %13.1f%% %13.1f%% %15.1f%% %15.1f%%\n" (i + 1)
         (100. *. cp50) (100. *. cp90) (100. *. up50) (100. *. up90))
    (List.combine calibrated uncalibrated);
  List.iter
    (fun (backend, f) ->
       Printf.printf "  fitted factor %-12s x%.3f\n" backend f)
    factors;
  (* byte-identity: every run of both modes must produce the same rows *)
  let baseline =
    match calibrated with
    | (_, _, outputs) :: _ -> outputs
    | [] -> []
  in
  let identical =
    List.for_all
      (fun (_, _, outputs) -> outputs = baseline)
      (calibrated @ uncalibrated)
  in
  Printf.printf "  outputs identical across runs and modes: %b\n%!" identical;
  if not identical then begin
    Printf.eprintf "FATAL: calibration changed workflow outputs\n";
    exit 1
  end;
  let rec strictly_decreasing = function
    | (a50, a90, _) :: ((b50, b90, _) :: _ as rest) ->
      b50 < a50 && b90 < a90 && strictly_decreasing rest
    | _ -> true
  in
  if not (strictly_decreasing calibrated) then begin
    Printf.eprintf
      "FATAL: calibrated |rel error| must shrink strictly run-over-run\n";
    exit 1
  end;
  let flat =
    match uncalibrated with
    | (p50, p90, _) :: rest ->
      List.for_all
        (fun (q50, q90, _) ->
           Float.abs (q50 -. p50) < 1e-12 && Float.abs (q90 -. p90) < 1e-12)
        rest
    | [] -> true
  in
  if not flat then begin
    Printf.eprintf
      "FATAL: without calibration the error trend must stay flat\n";
    exit 1
  end;
  let json =
    let b = Buffer.create 1024 in
    Buffer.add_string b "{\n";
    Buffer.add_string b (Printf.sprintf "  \"runs\": %d,\n" runs);
    Buffer.add_string b
      (Printf.sprintf "  \"engines\": [%s],\n"
         (String.concat ", "
            (List.map
               (fun e -> Printf.sprintf "%S" (Engines.Backend.name e))
               engines)));
    let series name results =
      Buffer.add_string b (Printf.sprintf "  %S: [\n" name);
      List.iteri
        (fun i (p50, p90, _) ->
           Buffer.add_string b
             (Printf.sprintf
                "    {\"run\": %d, \"abs_rel_error_p50\": %.6f, \
                 \"abs_rel_error_p90\": %.6f}%s\n"
                (i + 1) p50 p90
                (if i = List.length results - 1 then "" else ",")))
        results;
      Buffer.add_string b "  ],\n"
    in
    series "calibrated" calibrated;
    series "uncalibrated" uncalibrated;
    Buffer.add_string b "  \"factors\": [\n";
    List.iteri
      (fun i (backend, f) ->
         Buffer.add_string b
           (Printf.sprintf "    {\"backend\": %S, \"factor\": %.6f}%s\n"
              backend f
              (if i = List.length factors - 1 then "" else ",")))
      factors;
    Buffer.add_string b "  ],\n";
    Buffer.add_string b
      (Printf.sprintf "  \"outputs_identical\": %b\n}\n" identical);
    Buffer.contents b
  in
  Out_channel.with_open_text "BENCH_calibration.json" (fun oc ->
      Out_channel.output_string oc json);
  Printf.printf "wrote BENCH_calibration.json\n"

(* ---- serving-layer benchmark ----

   Exercises [Serve.Service] end-to-end against synthetic multi-tenant
   load and gates the three serving mechanisms:

   (1) byte-identity: a small load is served under every combination of
       columnar {on,off}, and every served submission's outputs must byte-match a one-shot run of
       the same workflow on a snapshot of the initial HDFS (fatal
       otherwise) — caching, admission and scan sharing may only move
       accounting, never rows;
   (2) plan cache: on repeat traffic the hit rate must be >= 90% and
       warm (hit) planning must be >= 5x faster than cold planning;
   (3) cross-workflow shared scans: a burst of co-admitted workflows
       reading the same input must pay exactly one modeled HDFS fetch.

   Writes BENCH_serve.json. *)

let serve_bench () =
  let open Relation in
  let kv_schema =
    Schema.make
      [ { Schema.name = "k"; ty = Value.Tint };
        { Schema.name = "v"; ty = Value.Tint } ]
  in
  let kv_table seed =
    Table.create kv_schema
      (List.init 120 (fun i ->
           [| Value.Int ((i + seed) mod 7); Value.Int (i * (seed + 3)) |]))
  in
  let fresh_hdfs () =
    let hdfs = Engines.Hdfs.create () in
    Engines.Hdfs.put hdfs "r1" ~modeled_mb:64. (kv_table 1);
    Engines.Hdfs.put hdfs "r2" ~modeled_mb:48. (kv_table 2);
    hdfs
  in
  (* both workflows read r1, so co-admitted submissions share its scan *)
  let agg_graph () =
    let b = Ir.Builder.create () in
    let r = Ir.Builder.input b "r1" in
    let s = Ir.Builder.select b ~pred:Expr.(col "v" > int 4) r in
    let m =
      Ir.Builder.map b ~target:"centered" ~expr:Expr.(col "v" - int 3) s
    in
    let g =
      Ir.Builder.group_by b ~name:"out" ~keys:[ "k" ]
        ~aggs:[ Aggregate.make (Aggregate.Sum "centered") ~as_name:"v" ]
        m
    in
    Ir.Builder.finish b ~outputs:[ g ]
  in
  let scanmate_graph () =
    let b = Ir.Builder.create () in
    let b1 =
      Ir.Builder.project b ~columns:[ "k" ]
        (Ir.Builder.select b
           ~pred:Expr.(col "v" <= int 40)
           (Ir.Builder.input b "r1"))
    in
    let b2 =
      Ir.Builder.project b ~columns:[ "k" ] (Ir.Builder.input b "r2")
    in
    let u = Ir.Builder.union b b1 b2 in
    let d = Ir.Builder.distinct b ~name:"out" u in
    Ir.Builder.finish b ~outputs:[ d ]
  in
  let tenants = [ ("gold", 3.); ("bronze", 1.) ] in
  let mix =
    [ { Serve.Client.workflow = "agg"; graph = agg_graph (); weight = 1. };
      { Serve.Client.workflow = "scanmate"; graph = scanmate_graph ();
        weight = 1. } ]
  in
  let config =
    { Serve.Service.default_config with
      Serve.Service.concurrency = 4; cache_capacity = 128;
      weights = tenants }
  in
  let sorted_csv outputs =
    List.sort compare
      (List.map (fun (name, t) -> (name, Table.to_csv t)) outputs)
  in
  let cluster = Experiments.Common.ec2 16 in
  (* one-shot reference: fresh manager, no cache, no sharing *)
  let reference_outputs ~hdfs (e : Serve.Client.mix_entry) =
    let h = Engines.Hdfs.snapshot hdfs in
    let m = Musketeer.create ~cluster () in
    match Musketeer.plan m ~workflow:e.workflow ~hdfs:h e.graph with
    | None ->
      Printf.eprintf "FATAL: %s does not plan\n" e.workflow;
      exit 1
    | Some (plan, g') -> (
      match
        Musketeer.execute_plan ~record_history:false m ~workflow:e.workflow
          ~hdfs:h ~graph:g' plan
      with
      | Error err ->
        Printf.eprintf "FATAL: one-shot %s failed: %s\n" e.workflow
          (Engines.Report.error_to_string err);
        exit 1
      | Ok r -> sorted_csv r.Musketeer.Executor.outputs)
  in

  (* -- part 1: byte-identity matrix -- *)
  let identity_configs = ref 0 in
  List.iter
    (fun columnar ->
       incr identity_configs;
       Column.with_enabled columnar @@ fun () ->
       let hdfs = fresh_hdfs () in
       let base = Engines.Hdfs.snapshot hdfs in
       let m = Musketeer.create ~cluster () in
       let subs =
         Serve.Client.generate ~seed:4242 ~rate_per_s:1. ~count:8
           ~tenants ~mix ()
       in
       let outcomes, _ = Serve.Service.run ~config m ~hdfs subs in
       let reference =
         List.map
           (fun (e : Serve.Client.mix_entry) ->
              (e.workflow, reference_outputs ~hdfs:base e))
           mix
       in
       List.iter
         (fun (o : Serve.Service.outcome) ->
            (match o.error with
             | Some err ->
               Printf.eprintf
                 "FATAL: serve %s failed (columnar=%b): %s\n"
                 o.sub.Serve.Service.workflow columnar err;
               exit 1
             | None -> ());
            let want =
              List.assoc o.sub.Serve.Service.workflow reference
            in
            if sorted_csv o.outputs <> want then begin
              Printf.eprintf
                "FATAL: served %s output differs from one-shot \
                 run (columnar=%b)\n"
                o.sub.Serve.Service.workflow columnar;
              exit 1
            end)
         outcomes)
    [ true; false ];
  Printf.printf
    "identity: 8 submissions x %d configs (columnar) \
     byte-identical to one-shot runs\n%!"
    !identity_configs;

  (* -- part 2: repeat-traffic throughput, latency and plan cache -- *)
  Obs.Metrics.reset Obs.Metrics.default;
  let load_count = 60 and load_rate = 2. in
  let hdfs = fresh_hdfs () in
  let m = Musketeer.create ~cluster () in
  let subs =
    Serve.Client.generate ~seed:4242 ~rate_per_s:load_rate ~count:load_count
      ~tenants ~mix ()
  in
  let outcomes, svc = Serve.Service.run ~config m ~hdfs subs in
  let s = Serve.Service.summarize svc outcomes in
  Serve.Service.pp_summary Format.std_formatter s;
  if s.Serve.Service.errors > 0 then begin
    Printf.eprintf "FATAL: %d serve errors\n" s.Serve.Service.errors;
    exit 1
  end;
  if s.Serve.Service.cache_hit_rate < 0.9 then begin
    Printf.eprintf "FATAL: plan-cache hit rate %.1f%% < 90%% on repeat traffic\n"
      (100. *. s.Serve.Service.cache_hit_rate);
    exit 1
  end;
  let warm_speedup =
    s.Serve.Service.plan_cold_s /. Float.max s.Serve.Service.plan_warm_s 1e-9
  in
  if warm_speedup < 5. then begin
    Printf.eprintf "FATAL: warm planning only %.1fx faster than cold (< 5x)\n"
      warm_speedup;
    exit 1
  end;

  (* -- part 3: co-admitted same-input scans pay once -- *)
  let burst_n = 4 in
  let hdfs3 = fresh_hdfs () in
  let m3 = Musketeer.create ~cluster () in
  let burst =
    List.init burst_n (fun i ->
        { Serve.Service.tenant = (if i mod 2 = 0 then "gold" else "bronze");
          workflow = "agg"; graph = agg_graph (); arrival_s = 0.;
          slo_s = None })
  in
  let burst_outcomes, svc3 = Serve.Service.run ~config m3 ~hdfs:hdfs3 burst in
  List.iter
    (fun (o : Serve.Service.outcome) ->
       match o.error with
       | Some err ->
         Printf.eprintf "FATAL: burst submission failed: %s\n" err;
         exit 1
       | None -> ())
    burst_outcomes;
  let paid = Engines.Share.paid_reads (Serve.Service.store svc3) "r1" in
  Printf.printf
    "\nco-admission: %d concurrent workflows reading r1 paid %d modeled \
     fetch(es)\n%!"
    burst_n paid;
  if paid <> 1 then begin
    Printf.eprintf
      "FATAL: co-admitted same-input workflows paid %d reads (want 1)\n"
      paid;
    exit 1
  end;

  let json =
    let b = Buffer.create 2048 in
    Buffer.add_string b "{\n";
    Buffer.add_string b
      (Printf.sprintf
         "  \"identity\": {\"configs\": %d, \"submissions_each\": 8, \
          \"ok\": true},\n"
         !identity_configs);
    Buffer.add_string b "  \"load\": {\n";
    Buffer.add_string b
      (Printf.sprintf "    \"submissions\": %d,\n" load_count);
    Buffer.add_string b
      (Printf.sprintf "    \"rate_per_s\": %.3f,\n" load_rate);
    Buffer.add_string b
      (Printf.sprintf "    \"throughput_wps\": %.6f,\n"
         s.Serve.Service.throughput_wps);
    Buffer.add_string b
      (Printf.sprintf "    \"latency_p50_s\": %.6f,\n"
         s.Serve.Service.latency_p50_s);
    Buffer.add_string b
      (Printf.sprintf "    \"latency_p99_s\": %.6f,\n"
         s.Serve.Service.latency_p99_s);
    Buffer.add_string b
      (Printf.sprintf "    \"cache_hit_rate\": %.6f,\n"
         s.Serve.Service.cache_hit_rate);
    Buffer.add_string b
      (Printf.sprintf "    \"plan_cold_s\": %.9f,\n"
         s.Serve.Service.plan_cold_s);
    Buffer.add_string b
      (Printf.sprintf "    \"plan_warm_s\": %.9f,\n"
         s.Serve.Service.plan_warm_s);
    Buffer.add_string b
      (Printf.sprintf "    \"warm_speedup\": %.3f,\n" warm_speedup);
    Buffer.add_string b
      (Printf.sprintf "    \"scan_saved_mb\": %.3f\n"
         s.Serve.Service.scan_saved_mb);
    Buffer.add_string b "  },\n";
    Buffer.add_string b "  \"tenants\": [\n";
    let n_tenants = List.length s.Serve.Service.tenants in
    List.iteri
      (fun i (ts : Serve.Service.tenant_summary) ->
         Buffer.add_string b
           (Printf.sprintf
              "    {\"tenant\": %S, \"served\": %d, \
               \"queue_delay_p50_s\": %.6f, \"queue_delay_p99_s\": %.6f, \
               \"latency_p99_s\": %.6f}%s\n"
              ts.st_tenant ts.st_completed ts.st_queue_p50_s
              ts.st_queue_p99_s ts.st_latency_p99_s
              (if i = n_tenants - 1 then "" else ",")))
      s.Serve.Service.tenants;
    Buffer.add_string b "  ],\n";
    Buffer.add_string b
      (Printf.sprintf
         "  \"sharing\": {\"co_admitted\": %d, \"paid_reads\": %d}\n"
         burst_n paid);
    Buffer.add_string b "}\n";
    Buffer.contents b
  in
  Out_channel.with_open_text "BENCH_serve.json" (fun oc ->
      Out_channel.output_string oc json);
  Printf.printf "wrote BENCH_serve.json\n"

(* == target: subplan — common-subplan sharing through the shared store ==

   Three claims about the serving layer's multi-query optimization,
   all enforced fatally (virtual time makes them deterministic):
   (1) byte identity: with sharing on, every served output equals a
       one-shot run of the same workflow, columnar on and off —
       sharing may only move accounting, never rows;
   (2) repeat traffic over a two-tenant common-prefix mix cuts the
       total modeled makespan by >= 1.3x versus sharing off;
   (3) the shared prefix executes once per input epoch: N sequential
       repeats pay one materialization and attach N-1 times, and an
       input overwrite forces exactly one repayment.

   Writes BENCH_subplan.json. *)

let subplan_bench () =
  let open Relation in
  let kv_schema =
    Schema.make
      [ { Schema.name = "k"; ty = Value.Tint };
        { Schema.name = "v"; ty = Value.Tint } ]
  in
  let kv_table seed =
    Table.create kv_schema
      (List.init 120 (fun i ->
           [| Value.Int ((i + seed) mod 7); Value.Int (i * (seed + 3)) |]))
  in
  let fresh_hdfs () =
    let hdfs = Engines.Hdfs.create () in
    Engines.Hdfs.put hdfs "r1" ~modeled_mb:512. (kv_table 1);
    Engines.Hdfs.put hdfs "r2" ~modeled_mb:48. (kv_table 2);
    hdfs
  in
  (* both workflows share a heavy featurize-and-aggregate prefix over
     r1 (select + map chain + projection + GROUP BY, so the modeled
     materialization is small); the suffixes differ, so only the
     prefix is shareable *)
  let prefix b =
    let r = Ir.Builder.input b "r1" in
    let s = Ir.Builder.select b ~pred:Expr.(col "v" > int 4) r in
    let m = ref s in
    for i = 1 to 6 do
      m :=
        Ir.Builder.map b
          ~target:(Printf.sprintf "m%d" i)
          ~expr:Expr.(col "v" + int i)
          !m
    done;
    let p = Ir.Builder.project b ~columns:[ "k"; "m6" ] !m in
    Ir.Builder.group_by b ~keys:[ "k" ]
      ~aggs:[ Aggregate.make (Aggregate.Sum "m6") ~as_name:"v" ]
      p
  in
  let agg_graph () =
    let b = Ir.Builder.create () in
    let p = prefix b in
    let m =
      Ir.Builder.map b ~name:"out" ~target:"w"
        ~expr:Expr.(col "v" + int 1)
        p
    in
    Ir.Builder.finish b ~outputs:[ m ]
  in
  let sorted_graph () =
    let b = Ir.Builder.create () in
    let p = prefix b in
    let s = Ir.Builder.sort b ~name:"out" ~by:"v" ~descending:true p in
    Ir.Builder.finish b ~outputs:[ s ]
  in
  let tenants = [ ("gold", 3.); ("bronze", 1.) ] in
  let mix =
    [ { Serve.Client.workflow = "agg"; graph = agg_graph (); weight = 1. };
      { Serve.Client.workflow = "sorted"; graph = sorted_graph ();
        weight = 1. } ]
  in
  let config ~cache_mb =
    { Serve.Service.default_config with
      Serve.Service.concurrency = 4; cache_capacity = 128;
      subresult_cache_mb = cache_mb; weights = tenants }
  in
  let sorted_csv outputs =
    List.sort compare
      (List.map (fun (name, t) -> (name, Table.to_csv t)) outputs)
  in
  let cluster = Experiments.Common.ec2 16 in
  let reference_outputs ~hdfs (e : Serve.Client.mix_entry) =
    let h = Engines.Hdfs.snapshot hdfs in
    let m = Musketeer.create ~cluster () in
    match Musketeer.plan m ~workflow:e.workflow ~hdfs:h e.graph with
    | None ->
      Printf.eprintf "FATAL: %s does not plan\n" e.workflow;
      exit 1
    | Some (plan, g') -> (
      match
        Musketeer.execute_plan ~record_history:false m ~workflow:e.workflow
          ~hdfs:h ~graph:g' plan
      with
      | Error err ->
        Printf.eprintf "FATAL: one-shot %s failed: %s\n" e.workflow
          (Engines.Report.error_to_string err);
        exit 1
      | Ok r -> sorted_csv r.Musketeer.Executor.outputs)
  in

  (* -- part 1: byte-identity matrix with sharing ON -- *)
  let identity_configs = ref 0 in
  List.iter
    (fun columnar ->
       incr identity_configs;
       Column.with_enabled columnar @@ fun () ->
       let hdfs = fresh_hdfs () in
       let base = Engines.Hdfs.snapshot hdfs in
       let m = Musketeer.create ~cluster () in
       let subs =
         Serve.Client.generate ~seed:4242 ~rate_per_s:1. ~count:8
           ~tenants ~mix ()
       in
       let outcomes, _ =
         Serve.Service.run ~config:(config ~cache_mb:256.) m
           ~hdfs subs
       in
       let reference =
         List.map
           (fun (e : Serve.Client.mix_entry) ->
              (e.workflow, reference_outputs ~hdfs:base e))
           mix
       in
       List.iter
         (fun (o : Serve.Service.outcome) ->
            (match o.error with
             | Some err ->
               Printf.eprintf
                 "FATAL: shared serve %s failed (columnar=%b): %s\n"
                 o.sub.Serve.Service.workflow columnar err;
               exit 1
             | None -> ());
            let want =
              List.assoc o.sub.Serve.Service.workflow reference
            in
            if sorted_csv o.outputs <> want then begin
              Printf.eprintf
                "FATAL: shared-subplan %s output differs from \
                 one-shot run (columnar=%b)\n"
                o.sub.Serve.Service.workflow columnar;
              exit 1
            end)
         outcomes)
    [ true; false ];
  Printf.printf
    "identity: 8 shared-subplan submissions x %d configs (columnar) \
     byte-identical to one-shot runs\n%!"
    !identity_configs;

  (* -- part 2: repeat-traffic modeled-makespan cut -- *)
  let load_count = 24 in
  let run_load cache_mb =
    let hdfs = fresh_hdfs () in
    let m = Musketeer.create ~cluster () in
    let subs =
      Serve.Client.generate ~seed:4242 ~rate_per_s:1. ~count:load_count
        ~tenants ~mix ()
    in
    let outcomes, svc =
      Serve.Service.run ~config:(config ~cache_mb) m ~hdfs subs
    in
    List.iter
      (fun (o : Serve.Service.outcome) ->
         match o.error with
         | Some err ->
           Printf.eprintf "FATAL: submission failed (cache %.0f MB): %s\n"
             cache_mb err;
           exit 1
         | None -> ())
      outcomes;
    (outcomes, svc)
  in
  let total_makespan outcomes =
    List.fold_left
      (fun acc (o : Serve.Service.outcome) -> acc +. o.makespan_s)
      0. outcomes
  in
  let off_outcomes, _ = run_load 0. in
  let on_outcomes, on_svc = run_load 256. in
  let off_makespan = total_makespan off_outcomes
  and on_makespan = total_makespan on_outcomes in
  let speedup = off_makespan /. Float.max on_makespan 1e-9 in
  let hits =
    List.fold_left
      (fun acc (o : Serve.Service.outcome) -> acc + o.subplan_hits)
      0 on_outcomes
  and paid =
    List.fold_left
      (fun acc (o : Serve.Service.outcome) -> acc + o.subplan_paid)
      0 on_outcomes
  in
  let store = Serve.Service.store on_svc in
  let attached_mb = Engines.Share.attached_mb store
  and cache_stats = Engines.Share.stats store in
  Printf.printf
    "repeat traffic: %d submissions, modeled makespan %.1fs off -> %.1fs \
     on (%.2fx), %d prefixes attached / %d materialized\n%!"
    load_count off_makespan on_makespan speedup hits paid;
  if speedup < 1.3 then begin
    Printf.eprintf
      "FATAL: subplan sharing cut modeled makespan only %.2fx (< 1.3x)\n"
      speedup;
    exit 1
  end;
  if hits = 0 then begin
    Printf.eprintf "FATAL: no prefixes attached under repeat traffic\n";
    exit 1
  end;

  (* -- part 3: the prefix executes once per input epoch -- *)
  let hdfs3 = fresh_hdfs () in
  let m3 = Musketeer.create ~cluster () in
  let svc3 =
    Serve.Service.create ~config:(config ~cache_mb:256.) m3 ~hdfs:hdfs3
  in
  let one at =
    match
      Serve.Service.drive svc3
        [ { Serve.Service.tenant = "gold"; workflow = "agg";
            graph = agg_graph (); arrival_s = at; slo_s = None } ]
    with
    | [ o ] ->
      (match o.error with
       | Some err ->
         Printf.eprintf "FATAL: epoch submission failed: %s\n" err;
         exit 1
       | None -> ());
      (o.Serve.Service.subplan_hits, o.Serve.Service.subplan_paid)
    | _ ->
      Printf.eprintf "FATAL: expected one outcome\n";
      exit 1
  in
  let h1, p1 = one 0. in
  let h2, p2 = one 10000. in
  let h3, p3 = one 20000. in
  let epoch_paid = p1 + p2 + p3 and epoch_hits = h1 + h2 + h3 in
  Serve.Service.put_input svc3 "r1" ~modeled_mb:64. (kv_table 1);
  let h4, p4 = one 30000. in
  Printf.printf
    "epochs: 3 repeats paid %d materialization(s), attached %d; input \
     overwrite repaid %d\n%!"
    epoch_paid epoch_hits p4;
  if epoch_paid <> 1 || epoch_hits <> 2 then begin
    Printf.eprintf
      "FATAL: prefix not executed once per epoch (paid %d, want 1; \
       attached %d, want 2)\n"
      epoch_paid epoch_hits;
    exit 1
  end;
  if p4 <> 1 || h4 <> 0 then begin
    Printf.eprintf
      "FATAL: input overwrite must force exactly one repayment (paid %d, \
       attached %d)\n"
      p4 h4;
    exit 1
  end;

  let json =
    let b = Buffer.create 2048 in
    Buffer.add_string b "{\n";
    Buffer.add_string b
      (Printf.sprintf
         "  \"identity\": {\"configs\": %d, \"submissions_each\": 8, \
          \"ok\": true},\n"
         !identity_configs);
    Buffer.add_string b "  \"repeat\": {\n";
    Buffer.add_string b
      (Printf.sprintf "    \"submissions\": %d,\n" load_count);
    Buffer.add_string b
      (Printf.sprintf "    \"off_makespan_s\": %.6f,\n" off_makespan);
    Buffer.add_string b
      (Printf.sprintf "    \"on_makespan_s\": %.6f,\n" on_makespan);
    Buffer.add_string b
      (Printf.sprintf "    \"speedup\": %.3f,\n" speedup);
    Buffer.add_string b "    \"min_speedup\": 1.3,\n";
    Buffer.add_string b
      (Printf.sprintf "    \"subplan_hits\": %d,\n" hits);
    Buffer.add_string b
      (Printf.sprintf "    \"subplan_paid\": %d,\n" paid);
    Buffer.add_string b
      (Printf.sprintf "    \"attached_mb\": %.3f,\n" attached_mb);
    Buffer.add_string b
      (Printf.sprintf
         "    \"subresult_cache\": {\"hits\": %d, \"misses\": %d, \
          \"evictions\": %d, \"entries\": %d, \"bytes_mb\": %.3f}\n"
         cache_stats.Engines.Share.hits cache_stats.misses
         cache_stats.evictions cache_stats.entries cache_stats.bytes_mb);
    Buffer.add_string b "  },\n";
    Buffer.add_string b
      (Printf.sprintf
         "  \"epochs\": {\"repeats\": 3, \"paid_first_epoch\": %d, \
          \"hits_first_epoch\": %d, \"paid_after_write\": %d}\n"
         epoch_paid epoch_hits p4);
    Buffer.add_string b "}\n";
    Buffer.contents b
  in
  Out_channel.with_open_text "BENCH_subplan.json" (fun oc ->
      Out_channel.output_string oc json);
  Printf.printf "wrote BENCH_subplan.json\n"

(* == target: overload — shedding, SLOs, chaos and crash-restart ==

   Four claims about the overload-hardened serving layer, all enforced
   fatally (virtual time makes them deterministic):
   (1) shedding: at 2x load, bounded queues + the pressure ladder keep
       p99 queue delay <= 5x the 1x baseline AND in-SLO goodput >= the
       unshed 2x run;
   (2) chaos identity: under fault injection + shedding + SLOs, every
       COMPLETED submission stays byte-identical to a one-shot run
       with columnar on and off, and no store flight is left open;
   (3) crash-restart: a fresh service restored from the run ledger
       brings plan-cache hit rate and p99 latency back within 10% of
       steady state within 50 submissions;
   (4) the ledger written under overload round-trips (schema 1.3).

   Writes BENCH_overload.json. *)

let overload_bench () =
  let open Relation in
  let kv_schema =
    Schema.make
      [ { Schema.name = "k"; ty = Value.Tint };
        { Schema.name = "v"; ty = Value.Tint } ]
  in
  let kv_table seed =
    Table.create kv_schema
      (List.init 120 (fun i ->
           [| Value.Int ((i + seed) mod 7); Value.Int (i * (seed + 3)) |]))
  in
  let fresh_hdfs () =
    let hdfs = Engines.Hdfs.create () in
    Engines.Hdfs.put hdfs "r1" ~modeled_mb:64. (kv_table 1);
    Engines.Hdfs.put hdfs "r2" ~modeled_mb:48. (kv_table 2);
    hdfs
  in
  let agg_graph () =
    let b = Ir.Builder.create () in
    let r = Ir.Builder.input b "r1" in
    let s = Ir.Builder.select b ~pred:Expr.(col "v" > int 4) r in
    let m =
      Ir.Builder.map b ~target:"centered" ~expr:Expr.(col "v" - int 3) s
    in
    let g =
      Ir.Builder.group_by b ~name:"out" ~keys:[ "k" ]
        ~aggs:[ Aggregate.make (Aggregate.Sum "centered") ~as_name:"v" ]
        m
    in
    Ir.Builder.finish b ~outputs:[ g ]
  in
  let scanmate_graph () =
    let b = Ir.Builder.create () in
    let b1 =
      Ir.Builder.project b ~columns:[ "k" ]
        (Ir.Builder.select b
           ~pred:Expr.(col "v" <= int 40)
           (Ir.Builder.input b "r1"))
    in
    let b2 =
      Ir.Builder.project b ~columns:[ "k" ] (Ir.Builder.input b "r2")
    in
    let u = Ir.Builder.union b b1 b2 in
    let d = Ir.Builder.distinct b ~name:"out" u in
    Ir.Builder.finish b ~outputs:[ d ]
  in
  let tenants = [ ("gold", 3.); ("bronze", 1.) ] in
  let mix =
    [ { Serve.Client.workflow = "agg"; graph = agg_graph (); weight = 1. };
      { Serve.Client.workflow = "scanmate"; graph = scanmate_graph ();
        weight = 1. } ]
  in
  let cluster = Experiments.Common.ec2 16 in
  let slo = 10. in
  let base_config =
    { Serve.Service.default_config with
      Serve.Service.concurrency = 2; cache_capacity = 128;
      weights = tenants; default_slo_s = Some slo }
  in
  let shed_config =
    { base_config with
      Serve.Service.tenant_queue_cap = 3; global_queue_cap = 6;
      shed_policy = Serve.Service.Shed_lowest_weight;
      pressure_threshold_s = 5. }
  in
  let run_load config ~rate ~count =
    let hdfs = fresh_hdfs () in
    let m = Musketeer.create ~cluster () in
    let subs =
      Serve.Client.generate ~seed:4242 ~rate_per_s:rate ~count ~tenants
        ~mix ()
    in
    let outcomes, svc = Serve.Service.run ~config m ~hdfs subs in
    (Serve.Service.summarize svc outcomes, outcomes, svc)
  in
  let served_queue_p99 outcomes =
    Serve.Service.percentile 0.99
      (List.filter_map
         (fun (o : Serve.Service.outcome) ->
            match o.status with
            | Serve.Service.Served -> Some o.queue_delay_s
            | _ -> None)
         outcomes)
  in

  (* -- part 1: load shedding keeps queue delay and goodput -- *)
  let base_rate = 0.8 and over_factor = 2. and load_count = 48 in
  let s_base, o_base, _ = run_load base_config ~rate:base_rate
      ~count:load_count in
  let over_rate = base_rate *. over_factor in
  let s_unshed, o_unshed, _ = run_load base_config ~rate:over_rate
      ~count:load_count in
  let s_shed, o_shed, svc_shed = run_load shed_config ~rate:over_rate
      ~count:load_count in
  let p99_base = served_queue_p99 o_base in
  let p99_unshed = served_queue_p99 o_unshed in
  let p99_shed = served_queue_p99 o_shed in
  Printf.printf
    "shedding: queue p99 %.2fs at 1x -> %.2fs unshed / %.2fs shed at \
     %.0fx; goodput %.3f unshed -> %.3f shed (%d shed, %d expired)\n%!"
    p99_base p99_unshed p99_shed over_factor
    s_unshed.Serve.Service.goodput_wps s_shed.Serve.Service.goodput_wps
    s_shed.Serve.Service.shed s_shed.Serve.Service.expired;
  if s_base.Serve.Service.errors > 0 || s_unshed.Serve.Service.errors > 0
     || s_shed.Serve.Service.errors > 0 then begin
    Printf.eprintf "FATAL: serve errors in a fault-free overload run\n";
    exit 1
  end;
  if s_shed.Serve.Service.shed = 0 then begin
    Printf.eprintf
      "FATAL: the bounded 2x run shed nothing — it is not overloaded\n";
    exit 1
  end;
  if p99_shed > 5. *. Float.max p99_base 1e-9 then begin
    Printf.eprintf
      "FATAL: shed queue p99 %.2fs > 5x the 1x baseline %.2fs\n"
      p99_shed p99_base;
    exit 1
  end;
  if s_shed.Serve.Service.goodput_wps
     < s_unshed.Serve.Service.goodput_wps -. 1e-9 then begin
    Printf.eprintf
      "FATAL: shed goodput %.3f < unshed goodput %.3f at %.0fx load\n"
      s_shed.Serve.Service.goodput_wps s_unshed.Serve.Service.goodput_wps
      over_factor;
    exit 1
  end;
  if Serve.Service.open_flights svc_shed <> 0 then begin
    Printf.eprintf "FATAL: shed run leaked store flights\n";
    exit 1
  end;

  (* -- part 2: chaos identity matrix -- *)
  let inject_plan =
    match Engines.Faults.parse_plan ~seed:4242 "worker@0.5;straggler*4:p=0.3"
    with
    | Ok p -> p
    | Error msg ->
      Printf.eprintf "FATAL: bad fault spec: %s\n" msg;
      exit 1
  in
  let chaos_config =
    { shed_config with
      Serve.Service.inject = Some inject_plan;
      recovery =
        { Musketeer.Recovery.default with Musketeer.Recovery.max_retries = 2 } }
  in
  let sorted_csv outputs =
    List.sort compare
      (List.map (fun (name, t) -> (name, Table.to_csv t)) outputs)
  in
  let reference_outputs ~hdfs (e : Serve.Client.mix_entry) =
    let h = Engines.Hdfs.snapshot hdfs in
    let m = Musketeer.create ~cluster () in
    match Musketeer.plan m ~workflow:e.workflow ~hdfs:h e.graph with
    | None ->
      Printf.eprintf "FATAL: %s does not plan\n" e.workflow;
      exit 1
    | Some (plan, g') -> (
      match
        Musketeer.execute_plan ~record_history:false m ~workflow:e.workflow
          ~hdfs:h ~graph:g' plan
      with
      | Error err ->
        Printf.eprintf "FATAL: one-shot %s failed: %s\n" e.workflow
          (Engines.Report.error_to_string err);
        exit 1
      | Ok r -> sorted_csv r.Musketeer.Executor.outputs)
  in
  let identity_configs = ref 0 in
  let identity_completed = ref 0 in
  let identity_dropped = ref 0 in
  List.iter
    (fun columnar ->
       incr identity_configs;
       Column.with_enabled columnar @@ fun () ->
       let hdfs = fresh_hdfs () in
       let base = Engines.Hdfs.snapshot hdfs in
       let m = Musketeer.create ~cluster () in
       let subs =
         Serve.Client.generate ~seed:4242 ~rate_per_s:over_rate
           ~count:12 ~tenants ~mix ()
       in
       let outcomes, svc =
         Serve.Service.run ~config:chaos_config m ~hdfs subs
       in
       let reference =
         List.map
           (fun (e : Serve.Client.mix_entry) ->
              (e.workflow, reference_outputs ~hdfs:base e))
           mix
       in
       List.iter
         (fun (o : Serve.Service.outcome) ->
            match o.status, o.error with
            | Serve.Service.(Shed _ | Expired), _ | _, Some _ ->
              incr identity_dropped
            | Serve.Service.Served, None ->
              incr identity_completed;
              let want =
                List.assoc o.sub.Serve.Service.workflow reference
              in
              if sorted_csv o.outputs <> want then begin
                Printf.eprintf
                  "FATAL: completed %s output differs from \
                   one-shot run under chaos (columnar=%b)\n"
                  o.sub.Serve.Service.workflow columnar;
                exit 1
              end)
         outcomes;
       if Serve.Service.open_flights svc <> 0 then begin
         Printf.eprintf
           "FATAL: chaos run leaked flights (columnar=%b)\n"
           columnar;
         exit 1
       end)
    [ true; false ];
  if !identity_completed = 0 then begin
    Printf.eprintf "FATAL: chaos matrix completed nothing\n";
    exit 1
  end;
  Printf.printf
    "chaos identity: %d completed submissions byte-identical across %d \
     configs (columnar; %d shed/expired/errored)\n%!"
    !identity_completed !identity_configs !identity_dropped;

  (* -- part 3: crash-restart recovery from the ledger -- *)
  let ledger_file = Filename.temp_file "musketeer_overload" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove ledger_file with _ -> ())
  @@ fun () ->
  let steady_config =
    { base_config with Serve.Service.ledger = Some ledger_file }
  in
  let hdfs = fresh_hdfs () in
  let m1 = Musketeer.create ~cluster () in
  let steady_count = 60 and restart_count = 50 in
  let arrivals count =
    Serve.Client.generate ~seed:4242 ~rate_per_s:base_rate ~count ~tenants
      ~mix ()
  in
  let svc1 = Serve.Service.create ~config:steady_config m1 ~hdfs in
  let o1 = Serve.Service.drive svc1 (arrivals steady_count) in
  let s1 = Serve.Service.summarize svc1 o1 in
  (* simulated crash: warm state dies, the ledger file and HDFS survive *)
  let records =
    match Obs.Ledger.load ~filename:ledger_file () with
    | r -> r
    | exception Obs.Ledger.Schema_error msg ->
      Printf.eprintf "FATAL: overload ledger does not round-trip: %s\n" msg;
      exit 1
  in
  if List.length records < steady_count then begin
    Printf.eprintf "FATAL: ledger has %d records, expected >= %d\n"
      (List.length records) steady_count;
    exit 1
  end;
  (* the restarted service: a fresh history, no calibration until
     [restore] re-fits it, fresh breakers *)
  let m2 = Musketeer.with_history m1 (Musketeer.History.create ()) in
  let svc2 = Serve.Service.create ~config:steady_config m2 ~hdfs in
  let stats =
    Serve.Service.restore svc2
      ~mix:
        (List.map
           (fun (e : Serve.Client.mix_entry) -> (e.workflow, e.graph))
           mix)
      records
  in
  Format.printf "%a@." Serve.Service.pp_restore_stats stats;
  (* same arrival process replayed against the restored service: warm
     state is the only thing that can differ from steady state *)
  let o2 = Serve.Service.drive svc2 (arrivals restart_count) in
  let s2 = Serve.Service.summarize svc2 o2 in
  let hit1 = s1.Serve.Service.cache_hit_rate in
  let hit2 = s2.Serve.Service.cache_hit_rate in
  let p99_1 = s1.Serve.Service.latency_p99_s in
  let p99_2 = s2.Serve.Service.latency_p99_s in
  Printf.printf
    "restart: cache hit rate %.1f%% -> %.1f%%, latency p99 %.2fs -> \
     %.2fs within %d submissions\n%!"
    (100. *. hit1) (100. *. hit2) p99_1 p99_2 restart_count;
  if stats.Serve.Service.r_warmed < List.length mix then begin
    Printf.eprintf "FATAL: restore warmed %d plans, expected %d\n"
      stats.Serve.Service.r_warmed (List.length mix);
    exit 1
  end;
  if Float.abs (hit2 -. hit1) > 0.10 *. Float.max hit1 1e-9 then begin
    Printf.eprintf
      "FATAL: restored hit rate %.1f%% not within 10%% of steady-state \
       %.1f%%\n"
      (100. *. hit2) (100. *. hit1);
    exit 1
  end;
  if Float.abs (p99_2 -. p99_1) > 0.10 *. Float.max p99_1 1e-9 then begin
    Printf.eprintf
      "FATAL: restored latency p99 %.2fs not within 10%% of steady-state \
       %.2fs\n"
      p99_2 p99_1;
    exit 1
  end;

  let json =
    let b = Buffer.create 2048 in
    Buffer.add_string b "{\n";
    Buffer.add_string b "  \"shedding\": {\n";
    Buffer.add_string b
      (Printf.sprintf "    \"base_rate_per_s\": %.3f,\n" base_rate);
    Buffer.add_string b
      (Printf.sprintf "    \"over_factor\": %.1f,\n" over_factor);
    Buffer.add_string b
      (Printf.sprintf "    \"queue_p99_base_s\": %.6f,\n" p99_base);
    Buffer.add_string b
      (Printf.sprintf "    \"queue_p99_unshed_s\": %.6f,\n" p99_unshed);
    Buffer.add_string b
      (Printf.sprintf "    \"queue_p99_shed_s\": %.6f,\n" p99_shed);
    Buffer.add_string b "    \"max_p99_ratio\": 5.0,\n";
    Buffer.add_string b
      (Printf.sprintf "    \"goodput_unshed_wps\": %.6f,\n"
         s_unshed.Serve.Service.goodput_wps);
    Buffer.add_string b
      (Printf.sprintf "    \"goodput_shed_wps\": %.6f,\n"
         s_shed.Serve.Service.goodput_wps);
    Buffer.add_string b
      (Printf.sprintf "    \"shed\": %d,\n" s_shed.Serve.Service.shed);
    Buffer.add_string b
      (Printf.sprintf "    \"expired\": %d\n" s_shed.Serve.Service.expired);
    Buffer.add_string b "  },\n";
    Buffer.add_string b
      (Printf.sprintf
         "  \"chaos\": {\"configs\": %d, \"completed\": %d, \"dropped\": \
          %d, \"spec\": \"worker@0.5;straggler*4:p=0.3\", \"ok\": true},\n"
         !identity_configs !identity_completed !identity_dropped);
    Buffer.add_string b "  \"restart\": {\n";
    Buffer.add_string b
      (Printf.sprintf "    \"steady_submissions\": %d,\n" steady_count);
    Buffer.add_string b
      (Printf.sprintf "    \"restart_submissions\": %d,\n" restart_count);
    Buffer.add_string b
      (Printf.sprintf "    \"ledger_records\": %d,\n"
         (List.length records));
    Buffer.add_string b
      (Printf.sprintf "    \"plans_rewarmed\": %d,\n"
         stats.Serve.Service.r_warmed);
    Buffer.add_string b
      (Printf.sprintf "    \"breakers_reopened\": %d,\n"
         stats.Serve.Service.r_breakers);
    Buffer.add_string b
      (Printf.sprintf "    \"hit_rate_steady\": %.6f,\n" hit1);
    Buffer.add_string b
      (Printf.sprintf "    \"hit_rate_restored\": %.6f,\n" hit2);
    Buffer.add_string b
      (Printf.sprintf "    \"latency_p99_steady_s\": %.6f,\n" p99_1);
    Buffer.add_string b
      (Printf.sprintf "    \"latency_p99_restored_s\": %.6f,\n" p99_2);
    Buffer.add_string b "    \"max_rel_error\": 0.10\n";
    Buffer.add_string b "  }\n";
    Buffer.add_string b "}\n";
    Buffer.contents b
  in
  Out_channel.with_open_text "BENCH_overload.json" (fun oc ->
      Out_channel.output_string oc json);
  Printf.printf "wrote BENCH_overload.json\n"

(* pull "--trace FILE" out of the argument list *)
let rec extract_trace = function
  | [] -> (None, [])
  | "--trace" :: file :: rest ->
    let _, rest = extract_trace rest in
    (Some file, rest)
  | arg :: rest ->
    let trace, rest = extract_trace rest in
    (trace, arg :: rest)

let run_target name f =
  Obs.Trace.with_span
    ~attrs:[ ("target", Obs.Trace.String name) ]
    "bench.target" f

let () =
  let trace_file, args = extract_trace (List.tl (Array.to_list Sys.argv)) in
  let go () =
    match args with
    | [ "list" ] | [ "--list" ] ->
      List.iter
        (fun (name, descr, _) -> Printf.printf "%-8s %s\n" name descr)
        targets;
      print_endline "bechamel  Bechamel micro-benchmarks (partitioning)";
      print_endline
        "kernels   columnar vs row kernel ratios (BENCH_kernels.json)";
      print_endline
        "supervision  straggler speculation, breaker, re-planning \
         (BENCH_supervision.json)";
      print_endline
        "calibration  ledger-driven cost-model correction \
         (BENCH_calibration.json)";
      print_endline
        "serve     multi-tenant serving: identity matrix, plan cache, \
         shared scans (BENCH_serve.json)";
      print_endline
        "subplan   common-subplan sharing through the shared store \
         (BENCH_subplan.json)";
      print_endline
        "overload  shedding, SLOs, chaos identity, crash-restart \
         (BENCH_overload.json)"
    | [ "bechamel" ] -> run_target "bechamel" bechamel
    | [ "kernels" ] -> run_target "kernels" kernels
    | [ "supervision" ] -> run_target "supervision" supervision_bench
    | [ "calibration" ] -> run_target "calibration" calibration_bench
    | [ "serve" ] -> run_target "serve" serve_bench
    | [ "subplan" ] -> run_target "subplan" subplan_bench
    | [ "overload" ] -> run_target "overload" overload_bench
    | [] ->
      List.iter
        (fun (name, _, f) ->
           Printf.printf "\n###### %s ######\n%!" name;
           run_target name f)
        targets
    | names ->
      List.iter
        (fun raw ->
           let name = resolve raw in
           match List.find_opt (fun (n, _, _) -> n = name) targets with
           | Some (_, _, f) -> run_target name f
           | None ->
             if raw = "bechamel" then run_target "bechamel" bechamel
             else if raw = "kernels" then run_target "kernels" kernels
             else if raw = "supervision" then
               run_target "supervision" supervision_bench
             else if raw = "calibration" then
               run_target "calibration" calibration_bench
             else if raw = "serve" then run_target "serve" serve_bench
             else if raw = "subplan" then run_target "subplan" subplan_bench
             else if raw = "overload" then
               run_target "overload" overload_bench
             else Printf.eprintf "unknown target %s (try: list)\n" raw)
        names
  in
  match trace_file with
  | None -> go ()
  | Some file ->
    let trace, () = Obs.Trace.collecting go in
    Obs.Export.write_file (Obs.Export.chrome_trace trace) ~filename:file;
    Printf.eprintf "trace: %d spans written to %s\n"
      (Obs.Trace.span_count trace) file
