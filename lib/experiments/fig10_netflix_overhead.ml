(** Figure 10 — generated-code overhead on the NetFlix movie
    recommendation workflow (§6.4): Musketeer's generated jobs vs
    hand-optimized baselines for the three general-purpose systems, as
    the number of movies used for prediction grows.

    Expected: overhead under ~30% everywhere; near zero on Naiad;
    largest on Spark, where the simple type-inference keeps one extra
    pass over the data. *)

let movie_counts = [ 4000; 8000; 12000; 17000 ]

let backends =
  [ ("Hadoop", Engines.Backend.Hadoop); ("Spark", Engines.Backend.Spark);
    ("Naiad", Engines.Backend.Naiad) ]

let overhead ~movies ~backend =
  let hdfs = Common.load_netflix ~movies in
  let graph = Workloads.Workflows.netflix () in
  (* one profiling run serves both measurements: neither records
     history, so each sees the same steady state *)
  let m =
    Common.steady_state (Musketeer.create ~cluster:(Common.ec2 100) ())
      ~workflow:"netflix" ~hdfs graph
  in
  let run mode =
    Common.run_forced ~mode ~profiled:false m ~workflow:"netflix" ~hdfs
      ~backend graph
  in
  let generated = run Musketeer.Executor.Generated in
  let baseline = run Musketeer.Executor.Baseline in
  match generated, baseline with
  | Ok g, Ok b -> Ok (g, b, 100. *. ((g -. b) /. b))
  | Error e, _ | _, Error e -> Error e

let run ppf =
  let rows =
    List.concat_map
      (fun movies ->
         List.map
           (fun (name, backend) ->
              match overhead ~movies ~backend with
              | Ok (g, b, pct) ->
                [ string_of_int movies; name; Common.seconds g;
                  Common.seconds b; Printf.sprintf "%+.1f%%" pct ]
              | Error e -> [ string_of_int movies; name; e; "-"; "-" ])
           backends)
      movie_counts
  in
  Common.table ppf
    ~title:"Figure 10: NetFlix workflow, Musketeer vs hand-optimized (EC2, 100 nodes)"
    ~header:[ "movies"; "back-end"; "generated"; "baseline"; "overhead" ]
    rows
