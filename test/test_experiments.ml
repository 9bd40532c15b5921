(* Shape tests for the experiment harness: each reproduced figure must
   exhibit the paper's qualitative result (who wins, roughly by what
   factor, where crossovers fall) — the acceptance criteria recorded in
   EXPERIMENTS.md. *)

let ok = function
  | Ok s -> s
  | Error e -> Alcotest.fail e

let assoc name rows = ok (List.assoc name rows)

(* ---------------- Figure 2 ---------------- *)

let test_fig2a_crossover () =
  (* Metis wins small inputs; Hadoop wins at 32 GB; Lindi is worst at
     scale; Spark trails Hadoop at scale (no data re-use) *)
  let small = Experiments.Fig2_micro.project_makespans ~size_mb:128. in
  let metis = assoc "Metis" small in
  List.iter
    (fun (name, r) ->
       if name <> "Metis" then
         Alcotest.(check bool) ("Metis beats " ^ name ^ " at 128MB") true
           (metis < ok r))
    small;
  let large = Experiments.Fig2_micro.project_makespans ~size_mb:32768. in
  let hadoop = assoc "Hadoop" large in
  Alcotest.(check bool) "Hadoop beats Spark at 32GB" true
    (hadoop < assoc "Spark" large);
  Alcotest.(check bool) "Hadoop beats Metis at 32GB" true
    (hadoop < assoc "Metis" large);
  Alcotest.(check bool) "Lindi I/O-bound at 32GB" true
    (assoc "Lindi" large > 2. *. hadoop)

let test_fig2b_winners () =
  let asym = Experiments.Fig2_micro.join_makespans ~symmetric:false in
  let c = assoc "C" asym in
  List.iter
    (fun (name, r) ->
       if name <> "C" then
         Alcotest.(check bool) ("C beats " ^ name ^ " on asymmetric join")
           true (c <= ok r))
    asym;
  let sym = Experiments.Fig2_micro.join_makespans ~symmetric:true in
  let hadoop = assoc "Hadoop" sym in
  List.iter
    (fun (name, r) ->
       if name <> "Hadoop" && name <> "Hive" then
         Alcotest.(check bool)
           ("Hadoop beats " ^ name ^ " on symmetric join")
           true (hadoop <= ok r))
    sym

(* ---------------- Figure 7 ---------------- *)

let test_fig7_speedups () =
  let hive, musketeer, lindi = Experiments.Fig7_tpch.series ~scale_factor:100 in
  let hive = ok hive and musketeer = ok musketeer and lindi = ok lindi in
  Alcotest.(check bool) "Musketeer ~2x over Hive/Hadoop" true
    (hive /. musketeer >= 1.8);
  Alcotest.(check bool) "Musketeer 6-12x over stock Lindi" true
    (lindi /. musketeer >= 6. && lindi /. musketeer <= 12.)

(* ---------------- Figure 8 ---------------- *)

let test_fig8_musketeer_tracks_best () =
  List.iter
    (fun nodes ->
       match
         Experiments.Fig8_pagerank_mapping.at_scale
           ~spec:Workloads.Datagen.twitter nodes
       with
       | None -> Alcotest.fail "scale failed"
       | Some r ->
         Alcotest.(check bool)
           (Printf.sprintf "within 30%% of best at %d nodes" nodes)
           true
           (r.Experiments.Fig8_pagerank_mapping.musketeer_s
            <= 1.3 *. r.Experiments.Fig8_pagerank_mapping.best_s))
    [ 1; 16; 100 ]

(* ---------------- Figure 9 ---------------- *)

let test_fig9_combination_wins () =
  let rows = Experiments.Fig9_cross_community.makespans () in
  let get name = ok (List.assoc name rows) in
  let single_naiad = get "Lindi only" in
  let one_job = get "Lindi & GraphLINQ (one Naiad job)" in
  Alcotest.(check bool) "avoiding cross-phase I/O wins" true
    (one_job < single_naiad);
  Alcotest.(check bool) "combos beat Hadoop-only" true
    (get "Hadoop + PowerGraph" < get "Hadoop only")

(* ---------------- Figure 10 ---------------- *)

let test_fig10_overhead_bounds () =
  List.iter
    (fun (_, backend) ->
       match Experiments.Fig10_netflix_overhead.overhead ~movies:8000 ~backend with
       | Error e -> Alcotest.fail e
       | Ok (_, _, pct) ->
         Alcotest.(check bool) "overhead within 0..30%" true
           (pct >= -5. && pct <= 30.))
    Experiments.Fig10_netflix_overhead.backends

(* ---------------- Figure 13 ---------------- *)

(* counted, not timed: the sets each search prices *)
let test_fig13_exponential_vs_linear () =
  let rows = Experiments.Fig13_partitioning.sets_scored [ 8; 14; 18 ] in
  let exh x =
    match List.find (fun (ops, _, _) -> ops = x) rows with
    | _, Some n, _ -> n
    | _ -> Alcotest.fail "exhaustive skipped"
  and dyn x =
    match List.find (fun (ops, _, _) -> ops = x) rows with _, _, n -> n
  in
  Alcotest.(check bool) "exhaustive blows up" true (exh 14 > 20 * exh 8);
  (* the paper's search re-scores every candidate: how it keys or
     prices sets must not change which sets it scores *)
  Alcotest.(check int) "exhaustive scores 119 sets at 8 ops" 119 (exh 8);
  Alcotest.(check int) "exhaustive scores 2,399 sets at 14 ops" 2399 (exh 14);
  List.iter
    (fun x ->
       Alcotest.(check int)
         (Printf.sprintf "dynamic scores n(n+1)/2 sets at %d ops" x)
         (x * (x + 1) / 2) (dyn x))
    [ 8; 14; 18 ];
  Alcotest.(check bool) "dynamic beats exhaustive at size" true
    (dyn 14 < exh 14)

(* ---------------- Figure 15 ---------------- *)

let test_fig15_choices () =
  let sssp_backends, sssp_choice =
    Experiments.Fig15_new_workflows.study ~workflow:"sssp"
      ~hdfs:(Experiments.Common.load_sssp ())
      ~graph:(Workloads.Workflows.sssp ~max_rounds:8 ())
  in
  Alcotest.(check bool) "SSSP choice is Naiad" true
    (String.length sssp_choice >= 5 && String.sub sssp_choice 0 5 = "Naiad");
  let naiad = ok (List.assoc "Naiad" sssp_backends) in
  List.iter
    (fun (name, r) ->
       match r with
       | Ok s when name <> "Naiad" ->
         Alcotest.(check bool) ("Naiad beats " ^ name) true (naiad <= s)
       | _ -> ())
    sssp_backends;
  let kmeans_backends, kmeans_choice =
    Experiments.Fig15_new_workflows.study ~workflow:"kmeans"
      ~hdfs:(Experiments.Common.load_kmeans ~points:100_000_000 ~k:100)
      ~graph:(Workloads.Workflows.kmeans ~iterations:5 ())
  in
  Alcotest.(check bool) "k-means choice is Naiad" true
    (String.length kmeans_choice >= 5 && String.sub kmeans_choice 0 5 = "Naiad");
  (match List.assoc "Spark" kmeans_backends with
   | Error msg ->
     Alcotest.(check bool) "Spark OOMs on k-means" true
       (String.length msg >= 3)
   | Ok _ -> Alcotest.fail "Spark should OOM on the CROSS JOIN");
  (match List.assoc "PowerGraph" kmeans_backends with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "PowerGraph cannot express k-means")

(* ---------------- table formatting ---------------- *)

let test_table_rendering () =
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  Experiments.Common.table ppf ~title:"t" ~header:[ "a"; "b" ]
    [ [ "1"; "2" ]; [ "333"; "4" ] ];
  Format.pp_print_flush ppf ();
  let s = Buffer.contents buf in
  let contains hay needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length hay
      && (String.sub hay i n = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "title present" true (contains s "== t ==")

let () =
  Alcotest.run "experiments"
    [ ( "fig2",
        [ Alcotest.test_case "2a crossover" `Slow test_fig2a_crossover;
          Alcotest.test_case "2b winners" `Slow test_fig2b_winners ] );
      ("fig7", [ Alcotest.test_case "speedups" `Slow test_fig7_speedups ]);
      ( "fig8",
        [ Alcotest.test_case "tracks best" `Slow
            test_fig8_musketeer_tracks_best ] );
      ( "fig9",
        [ Alcotest.test_case "combination wins" `Slow
            test_fig9_combination_wins ] );
      ( "fig10",
        [ Alcotest.test_case "overhead bounds" `Slow
            test_fig10_overhead_bounds ] );
      ( "fig13",
        [ Alcotest.test_case "exponential vs linear" `Slow
            test_fig13_exponential_vs_linear ] );
      ("fig15", [ Alcotest.test_case "choices" `Slow test_fig15_choices ]);
      ( "format",
        [ Alcotest.test_case "table" `Quick test_table_rendering ] ) ]
