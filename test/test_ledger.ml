(* Run-ledger persistence and calibration: JSONL round-trips, the
   schema-skew contract (unknown fields ignored, newer majors
   refused), crash tolerance for a torn final line, the Calibrate
   fitting rules, and the differential property that calibration can
   only change cost estimates — never a byte of workflow output. *)

let stats : Obs.Metrics.histogram_stats =
  { count = 3; min = 1.; max = 9.; mean = 4.; p50 = 3.; p90 = 8.; p99 = 9. }

let sample_record () : Obs.Ledger.record =
  { schema = Obs.Ledger.current_schema;
    ts = 1754_000_000.25;
    workflow = "netflix";
    ir_hash = "fnv1a:00deadbeef00cafe";
    partition = [ ("Hadoop", [ 1; 2 ]); ("Naiad", [ 3 ]) ];
    makespan_s = 12.5;
    predictions =
      [ { workflow = "netflix"; job = "netflix/job0"; backend = "Hadoop";
          predicted_s = 10.; raw_predicted_s = 8.; observed_s = 12. };
        { workflow = "netflix"; job = "netflix/job1"; backend = "Naiad";
          predicted_s = 2.; raw_predicted_s = 2.; observed_s = 0. } ];
    recoveries =
      [ { rec_workflow = "netflix"; rec_job = "netflix/job0";
          from_backend = "Hadoop"; to_backend = "Spark"; attempts = 2;
          first_error = "worker \"w3\" lost"; recovery_s = 1.5 } ];
    speculations = 1;
    replans = 0;
    deadline_breaches = 2;
    fusion_chains = 1;
    fusion_ops_fused = 3;
    fusion_mb_saved = 64.;
    shared_scans = 1;
    shared_scan_mb_saved = 32.;
    counters = [ ("jobs.Hadoop", 2); ("jobs.Naiad", 1) ];
    gauges = [ ("calibration.factor.Hadoop", 1.2) ];
    histograms = [ ("job.makespan_s", stats) ];
    serve = None }

let test_round_trip () =
  let r = sample_record () in
  let line = Obs.Ledger.line_of_record r in
  Alcotest.(check bool) "single line" false (String.contains line '\n');
  let records, torn = Obs.Ledger.of_lines [ line ] in
  Alcotest.(check int) "no torn lines" 0 torn;
  match records with
  | [ r' ] ->
    Alcotest.(check string) "schema" r.schema r'.Obs.Ledger.schema;
    Alcotest.(check string) "workflow" r.workflow r'.Obs.Ledger.workflow;
    Alcotest.(check string) "ir hash" r.ir_hash r'.Obs.Ledger.ir_hash;
    Alcotest.(check bool) "partition" true (r'.Obs.Ledger.partition = r.partition);
    Alcotest.(check (float 1e-9)) "makespan" r.makespan_s r'.Obs.Ledger.makespan_s;
    Alcotest.(check bool) "predictions" true
      (r'.Obs.Ledger.predictions = r.predictions);
    Alcotest.(check bool) "recoveries" true
      (r'.Obs.Ledger.recoveries = r.recoveries);
    Alcotest.(check int) "speculations" r.speculations r'.Obs.Ledger.speculations;
    Alcotest.(check int) "breaches" r.deadline_breaches
      r'.Obs.Ledger.deadline_breaches;
    Alcotest.(check bool) "counters" true (r'.Obs.Ledger.counters = r.counters);
    Alcotest.(check bool) "gauges" true (r'.Obs.Ledger.gauges = r.gauges);
    Alcotest.(check bool) "histograms" true
      (r'.Obs.Ledger.histograms = r.histograms)
  | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs)

(* the append/load cycle through an actual file *)
let test_file_round_trip () =
  let file = Filename.temp_file "test_ledger" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
  @@ fun () ->
  Sys.remove file;
  Alcotest.(check (list string)) "missing file is empty" []
    (List.map
       (fun (r : Obs.Ledger.record) -> r.workflow)
       (Obs.Ledger.load ~filename:file ()));
  let r = sample_record () in
  Obs.Ledger.append ~filename:file r;
  Obs.Ledger.append ~filename:file { r with workflow = "pagerank" };
  let records = Obs.Ledger.load ~filename:file () in
  Alcotest.(check (list string)) "two appended records"
    [ "netflix"; "pagerank" ]
    (List.map (fun (r : Obs.Ledger.record) -> r.workflow) records)

(* the serving-mode extension (schema 1.1) round-trips *)
let test_serve_round_trip () =
  let serve : Obs.Ledger.serve_info =
    { tenant = "gold"; queue_delay_s = 1.25; latency_s = 7.5; cache = "hit";
      subplan_hits = 2; subplan_attached_mb = 37.5; shed = None;
      slo_s = 30.; slo_met = true; breaker_open = [ "Spark" ];
      epochs = [ ("ratings", 3) ] }
  in
  let r = { (sample_record ()) with serve = Some serve } in
  let records, torn = Obs.Ledger.of_lines [ Obs.Ledger.line_of_record r ] in
  Alcotest.(check int) "not torn" 0 torn;
  match records with
  | [ r' ] -> (
    match r'.Obs.Ledger.serve with
    | Some s ->
      Alcotest.(check string) "tenant" "gold" s.tenant;
      Alcotest.(check (float 1e-9)) "queue delay" 1.25 s.queue_delay_s;
      Alcotest.(check (float 1e-9)) "latency" 7.5 s.latency_s;
      Alcotest.(check string) "cache" "hit" s.cache
    | None -> Alcotest.fail "serve info lost in round-trip")
  | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs)

(* a 1.1 ledger (serve object without the 1.2 subplan fields) must keep
   loading, with the subplan counters defaulting to zero *)
let test_old_1_1_serve_without_subplan_fields () =
  let serve : Obs.Ledger.serve_info =
    { tenant = "gold"; queue_delay_s = 1.25; latency_s = 7.5; cache = "hit";
      subplan_hits = 2; subplan_attached_mb = 37.5; shed = None;
      slo_s = 30.; slo_met = true; breaker_open = [ "Spark" ];
      epochs = [ ("ratings", 3) ] }
  in
  let r = { (sample_record ()) with serve = Some serve } in
  let line = Obs.Ledger.line_of_record r in
  let old_line =
    match Obs.Json.of_string line with
    | Obs.Json.Obj fields ->
      let serve_obj =
        match List.assoc "serve" fields with
        | Obs.Json.Obj sfields ->
          Obs.Json.Obj
            (List.remove_assoc "subplan_hits"
               (List.remove_assoc "subplan_attached_mb" sfields))
        | _ -> Alcotest.fail "serve did not serialize as an object"
      in
      Obs.Json.to_string
        (Obs.Json.Obj
           (("schema", Obs.Json.String "1.1")
            :: ("serve", serve_obj)
            :: List.remove_assoc "serve"
                 (List.remove_assoc "schema" fields)))
    | _ -> Alcotest.fail "record did not parse as an object"
  in
  let records, torn = Obs.Ledger.of_lines [ old_line ] in
  Alcotest.(check int) "not torn" 0 torn;
  match records with
  | [ r' ] -> (
    Alcotest.(check string) "1.1 accepted" "1.1" r'.Obs.Ledger.schema;
    match r'.Obs.Ledger.serve with
    | Some s ->
      Alcotest.(check string) "tenant intact" "gold" s.tenant;
      Alcotest.(check string) "cache intact" "hit" s.cache;
      Alcotest.(check int) "subplan hits default to 0" 0 s.subplan_hits;
      Alcotest.(check (float 1e-9)) "attached MB defaults to 0" 0.
        s.subplan_attached_mb
    | None -> Alcotest.fail "serve info lost on 1.1 input")
  | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs)

(* a 1.2 ledger (serve object without the 1.3 overload fields) must
   keep loading, with the overload state defaulting to "nothing was
   shed, no SLO, nothing to replay" *)
let test_old_1_2_serve_without_overload_fields () =
  let serve : Obs.Ledger.serve_info =
    { tenant = "gold"; queue_delay_s = 1.25; latency_s = 7.5; cache = "hit";
      subplan_hits = 2; subplan_attached_mb = 37.5;
      shed = Some "reject-newest"; slo_s = 30.; slo_met = false;
      breaker_open = [ "Spark" ]; epochs = [ ("ratings", 3) ] }
  in
  let r = { (sample_record ()) with serve = Some serve } in
  let line = Obs.Ledger.line_of_record r in
  let old_line =
    match Obs.Json.of_string line with
    | Obs.Json.Obj fields ->
      let serve_obj =
        match List.assoc "serve" fields with
        | Obs.Json.Obj sfields ->
          Obs.Json.Obj
            (List.fold_left
               (fun acc f -> List.remove_assoc f acc)
               sfields
               [ "shed"; "slo_s"; "slo_met"; "breaker_open"; "epochs" ])
        | _ -> Alcotest.fail "serve did not serialize as an object"
      in
      Obs.Json.to_string
        (Obs.Json.Obj
           (("schema", Obs.Json.String "1.2")
            :: ("serve", serve_obj)
            :: List.remove_assoc "serve"
                 (List.remove_assoc "schema" fields)))
    | _ -> Alcotest.fail "record did not parse as an object"
  in
  let records, torn = Obs.Ledger.of_lines [ old_line ] in
  Alcotest.(check int) "not torn" 0 torn;
  match records with
  | [ r' ] -> (
    Alcotest.(check string) "1.2 accepted" "1.2" r'.Obs.Ledger.schema;
    match r'.Obs.Ledger.serve with
    | Some s ->
      Alcotest.(check string) "tenant intact" "gold" s.tenant;
      Alcotest.(check int) "subplan hits intact" 2 s.subplan_hits;
      Alcotest.(check bool) "shed defaults to None" true (s.shed = None);
      Alcotest.(check (float 1e-9)) "slo defaults to none" 0. s.slo_s;
      Alcotest.(check bool) "slo_met defaults to true" true s.slo_met;
      Alcotest.(check bool) "no breakers to replay" true
        (s.breaker_open = []);
      Alcotest.(check bool) "no epochs to replay" true (s.epochs = [])
    | None -> Alcotest.fail "serve info lost on 1.2 input")
  | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs)

(* a pre-1.1 ledger (schema "1.0", no "serve" field) must keep loading:
   serving is an optional extension, not a migration *)
let test_old_schema_without_serve () =
  let line = Obs.Ledger.line_of_record (sample_record ()) in
  let old_line =
    match Obs.Json.of_string line with
    | Obs.Json.Obj fields ->
      Obs.Json.to_string
        (Obs.Json.Obj
           (("schema", Obs.Json.String "1.0")
            :: List.remove_assoc "serve"
                 (List.remove_assoc "schema" fields)))
    | _ -> Alcotest.fail "record did not parse as an object"
  in
  Alcotest.(check bool) "no serve field emitted for None" false
    (let n = String.length line in
     let rec scan i =
       i + 7 <= n && (String.sub line i 7 = "\"serve\"" || scan (i + 1))
     in
     scan 0);
  let records, torn = Obs.Ledger.of_lines [ old_line ] in
  Alcotest.(check int) "not torn" 0 torn;
  match records with
  | [ r ] ->
    Alcotest.(check string) "old schema accepted" "1.0" r.Obs.Ledger.schema;
    Alcotest.(check string) "payload intact" "netflix" r.Obs.Ledger.workflow;
    Alcotest.(check bool) "serve defaults to None" true
      (r.Obs.Ledger.serve = None)
  | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs)

(* unknown fields must be ignored, missing ones defaulted: an older
   reader keeps working when a newer minor version adds fields *)
let test_schema_skew_minor () =
  let line = Obs.Ledger.line_of_record (sample_record ()) in
  let with_extra =
    match Obs.Json.of_string line with
    | Obs.Json.Obj fields ->
      Obs.Json.to_string
        (Obs.Json.Obj
           (("schema", Obs.Json.String "1.9")
            :: ("a_future_field", Obs.Json.List [ Obs.Json.Number 1. ])
            :: List.remove_assoc "schema" fields))
    | _ -> Alcotest.fail "record did not parse as an object"
  in
  let records, torn = Obs.Ledger.of_lines [ with_extra ] in
  Alcotest.(check int) "not torn" 0 torn;
  match records with
  | [ r ] ->
    Alcotest.(check string) "newer minor accepted" "1.9" r.Obs.Ledger.schema;
    Alcotest.(check string) "fields preserved" "netflix" r.Obs.Ledger.workflow
  | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs)

let test_schema_skew_major () =
  let line = Obs.Ledger.line_of_record (sample_record ()) in
  let newer =
    match Obs.Json.of_string line with
    | Obs.Json.Obj fields ->
      Obs.Json.Obj
        (("schema", Obs.Json.String "2.0")
         :: List.remove_assoc "schema" fields)
    | _ -> Alcotest.fail "record did not parse as an object"
  in
  match Obs.Ledger.of_json newer with
  | _ -> Alcotest.fail "a newer major version must be refused"
  | exception Obs.Ledger.Schema_error msg ->
    let contains_version =
      let n = String.length msg in
      let rec scan i = i + 3 <= n && (String.sub msg i 3 = "2.0" || scan (i + 1)) in
      scan 0
    in
    Alcotest.(check bool) "error names the version" true contains_version

(* a torn FINAL line is a crash artifact: skipped, counted, never an
   error; a malformed line anywhere else is corruption and raises *)
let test_torn_final_line () =
  let line = Obs.Ledger.line_of_record (sample_record ()) in
  let torn_line = String.sub line 0 (String.length line / 2) in
  let records, torn = Obs.Ledger.of_lines [ line; line; torn_line ] in
  Alcotest.(check int) "two good records" 2 (List.length records);
  Alcotest.(check int) "one torn line" 1 torn;
  (match Obs.Ledger.of_lines [ line; torn_line; line ] with
   | _ -> Alcotest.fail "mid-file corruption must raise"
   | exception Obs.Json.Parse_error _ -> ());
  (* through a file: load skips the torn tail and bumps the counter *)
  let file = Filename.temp_file "test_ledger_torn" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
  @@ fun () ->
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc (line ^ "\n" ^ torn_line));
  let metrics = Obs.Metrics.create () in
  let records = Obs.Ledger.load ~metrics ~filename:file () in
  Alcotest.(check int) "torn tail skipped" 1 (List.length records);
  Alcotest.(check int) "warning counter" 1
    (Obs.Metrics.counter metrics "ledger.torn_lines")

(* crash-recovery property: whatever byte the appending writer died
   at, the ledger still loads. For every prefix of the final record:
   an empty tail is no line at all, a proper prefix is exactly one
   torn line, the full line is a second record — never an error and
   never a lost earlier record *)
let test_torn_at_every_byte_offset () =
  let line = Obs.Ledger.line_of_record (sample_record ()) in
  let n = String.length line in
  let file = Filename.temp_file "test_ledger_offsets" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
  @@ fun () ->
  for k = 0 to n do
    Out_channel.with_open_bin file (fun oc ->
        Out_channel.output_string oc (line ^ "\n" ^ String.sub line 0 k));
    let metrics = Obs.Metrics.create () in
    match Obs.Ledger.load ~metrics ~filename:file () with
    | exception e ->
      Alcotest.failf "truncated at byte %d of %d: load raised %s" k n
        (Printexc.to_string e)
    | records ->
      let torn = Obs.Metrics.counter metrics "ledger.torn_lines" in
      let expect_records, expect_torn =
        if k = 0 then (1, 0) else if k = n then (2, 0) else (1, 1)
      in
      if List.length records <> expect_records || torn <> expect_torn then
        Alcotest.failf
          "truncated at byte %d of %d: %d records / %d torn (expected %d / %d)"
          k n (List.length records) torn expect_records expect_torn
  done

(* ---- Calibrate.fit ---- *)

let record_with preds : Obs.Ledger.record =
  { (sample_record ()) with predictions = preds; recoveries = [] }

let pred ?(backend = "Hadoop") ~raw ~observed () : Obs.Metrics.prediction =
  { workflow = "w"; job = "w/job0"; backend; predicted_s = raw;
    raw_predicted_s = raw; observed_s = observed }

let test_fit_rules () =
  Alcotest.(check bool) "empty ledger, no factors" true
    (Musketeer.Calibrate.fit [] = []);
  (* one sample is below the min-sample threshold *)
  let one = record_with [ pred ~raw:10. ~observed:20. () ] in
  Alcotest.(check bool) "below min_samples omitted" true
    (Musketeer.Calibrate.fit [ one ] = []);
  (* two samples with ratio 2: EWMA walks from 1.0 halfway to the
     median each record, so one record fits 1.5, two fit 1.75 *)
  let two =
    record_with
      [ pred ~raw:10. ~observed:20. (); pred ~raw:30. ~observed:60. () ]
  in
  (match Musketeer.Calibrate.fit [ two ] with
   | [ ("Hadoop", f) ] -> Alcotest.(check (float 1e-9)) "one record" 1.5 f
   | _ -> Alcotest.fail "expected a Hadoop factor");
  (match Musketeer.Calibrate.fit [ two; two ] with
   | [ ("Hadoop", f) ] -> Alcotest.(check (float 1e-9)) "two records" 1.75 f
   | _ -> Alcotest.fail "expected a Hadoop factor");
  (* unobserved jobs carry no signal *)
  let unobserved =
    record_with
      [ pred ~raw:10. ~observed:0. (); pred ~raw:10. ~observed:0. () ]
  in
  Alcotest.(check bool) "unobserved jobs ignored" true
    (Musketeer.Calibrate.fit [ unobserved ] = []);
  (* a wild ratio clamps instead of poisoning the model *)
  let wild =
    record_with
      [ pred ~raw:1. ~observed:100. (); pred ~raw:1. ~observed:100. () ]
  in
  (match Musketeer.Calibrate.fit ~alpha:1.0 [ wild; wild ] with
   | [ ("Hadoop", f) ] ->
     Alcotest.(check (float 1e-9)) "clamped" Musketeer.Calibrate.clamp_hi f
   | _ -> Alcotest.fail "expected a Hadoop factor")

let cluster = Engines.Cluster.local_seven

let m = Musketeer.create ~cluster ()

(* factors live in the profile they were given to; the escape hatch
   ([--no-calibrate]) is a profile without any *)
let test_factor_installation () =
  let profile = Musketeer.profile m in
  let calibrated =
    Musketeer.Profile.with_calibration profile [ ("Hadoop", 1.4) ]
  in
  Alcotest.(check (float 1e-9)) "installed" 1.4
    (Musketeer.Profile.factor calibrated "Hadoop");
  Alcotest.(check (float 1e-9)) "unknown engine is neutral" 1.0
    (Musketeer.Profile.factor calibrated "Naiad");
  Alcotest.(check (float 1e-9)) "the original profile is untouched" 1.0
    (Musketeer.Profile.factor profile "Hadoop");
  Alcotest.(check (float 1e-9)) "no factors is neutral" 1.0
    (Musketeer.Profile.factor
       (Musketeer.Profile.with_calibration calibrated [])
       "Hadoop")

(* ---- calibration never changes outputs (differential property) ----

   Correction factors scale cost estimates, which may legitimately
   move the partitioner to a different plan — but the rows that come
   out must be byte-identical. *)

let run_spec ?(factors = []) spec =
  let m = Musketeer.with_calibration m factors in
  let hdfs = Qcheck_lite.hdfs_of_spec spec in
  let graph = Qcheck_lite.graph_of_spec spec in
  match Musketeer.plan m ~workflow:"cal-diff" ~hdfs graph with
  | None -> failwith "no engine admitted the workflow"
  | Some (plan, g') -> (
    match
      Musketeer.execute_plan ~record_history:false m ~workflow:"cal-diff"
        ~hdfs ~graph:g' plan
    with
    | Error e -> failwith (Engines.Report.error_to_string e)
    | Ok result -> (
      match List.assoc_opt "out" result.Musketeer.Executor.outputs with
      | None -> failwith "no \"out\" relation"
      | Some t -> Relation.Table.to_csv (Relation.Table.sort_by t [ "k"; "v" ])))

let calibration_is_output_invariant spec =
  let uncalibrated = run_spec spec in
  let skewed_up =
    run_spec spec
      ~factors:
        (List.map
           (fun b -> (Engines.Backend.name b, 1.9))
           Engines.Backend.all)
  in
  let skewed_mixed =
    run_spec spec ~factors:[ ("Hadoop", 0.3); ("Naiad", 2.8); ("Metis", 1.1) ]
  in
  if skewed_up <> uncalibrated then
    failwith "uniform x1.9 factors changed the output";
  if skewed_mixed <> uncalibrated then
    failwith "mixed per-engine factors changed the output";
  true

let seed =
  match Option.bind (Sys.getenv_opt "MUSKETEER_TEST_SEED") int_of_string_opt with
  | Some n -> n
  | None -> 2026

let test_calibration_output_invariant () =
  try
    Qcheck_lite.check ~count:20 ~seed ~name:"calibration is output-invariant"
      Qcheck_lite.spec_arbitrary calibration_is_output_invariant
  with Qcheck_lite.Falsified msg -> Alcotest.fail msg

let () =
  Alcotest.run "ledger"
    [ ( "ledger",
        [ Alcotest.test_case "record round-trip" `Quick test_round_trip;
          Alcotest.test_case "serve info round-trip" `Quick
            test_serve_round_trip;
          Alcotest.test_case "1.1 serve info loads without subplan fields"
            `Quick test_old_1_1_serve_without_subplan_fields;
          Alcotest.test_case "1.2 serve info loads without overload fields"
            `Quick test_old_1_2_serve_without_overload_fields;
          Alcotest.test_case "pre-1.1 ledger loads" `Quick
            test_old_schema_without_serve;
          Alcotest.test_case "file append/load" `Quick test_file_round_trip;
          Alcotest.test_case "newer minor tolerated" `Quick
            test_schema_skew_minor;
          Alcotest.test_case "newer major refused" `Quick
            test_schema_skew_major;
          Alcotest.test_case "torn final line" `Quick test_torn_final_line;
          Alcotest.test_case "torn at every byte offset" `Quick
            test_torn_at_every_byte_offset ] );
      ( "calibrate",
        [ Alcotest.test_case "fitting rules" `Quick test_fit_rules;
          Alcotest.test_case "installation and escape hatch" `Quick
            test_factor_installation;
          Alcotest.test_case "never changes outputs (jobs 1 and 4)" `Quick
            test_calibration_output_invariant ] ) ]
