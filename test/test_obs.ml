(* Tests for the observability layer: span nesting/ordering and
   exception safety, histogram quantiles, counter aggregation, JSON
   string escaping in the exporters, and end-to-end pipeline traces —
   a BEER workflow run under a collector must emit parseable Chrome
   trace_event JSON with one span per pipeline stage, and the executor
   must record predicted-vs-observed makespans into the metrics
   registry (WHILE expansion included). *)

open Relation

(* ---------------- a minimal JSON validity checker ----------------
   (the repo deliberately has no JSON dependency; what the exporter
   tests need is exactly "does this string parse as JSON") *)

exception Bad_json of string

let check_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at byte %d" msg !pos)) in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit = String.iter expect lit in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_ ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail "value expected"
  and obj () =
    expect '{';
    skip_ws ();
    match peek () with
    | Some '}' -> advance ()
    | _ ->
      let rec members () =
        skip_ws ();
        string_ ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          members ()
        | Some '}' -> advance ()
        | _ -> fail "expected ',' or '}'"
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    match peek () with
    | Some ']' -> advance ()
    | _ ->
      let rec elements () =
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          elements ()
        | Some ']' -> advance ()
        | _ -> fail "expected ',' or ']'"
      in
      elements ()
  and string_ () =
    expect '"';
    let rec chars () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
           advance ();
           chars ()
         | Some 'u' ->
           advance ();
           for _ = 1 to 4 do
             match peek () with
             | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
             | _ -> fail "bad \\u escape"
           done;
           chars ()
         | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "raw control char in string"
      | Some _ ->
        advance ();
        chars ()
    in
    chars ()
  and number () =
    (match peek () with Some '-' -> advance () | _ -> ());
    let digits () =
      let seen = ref false in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
          seen := true;
          advance ();
          go ()
        | _ -> ()
      in
      go ();
      if not !seen then fail "digit expected"
    in
    digits ();
    (match peek () with
     | Some '.' ->
       advance ();
       digits ()
     | _ -> ());
    match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ()
  in
  value ();
  skip_ws ();
  if !pos <> n then fail "trailing content"

let check_valid_json label s =
  try check_json s with
  | Bad_json msg -> Alcotest.failf "%s: invalid JSON: %s" label msg

(* ---------------- Trace ---------------- *)

let names trace =
  List.map (fun (s : Obs.Trace.span) -> s.Obs.Trace.name) (Obs.Trace.spans trace)

let test_span_nesting_and_ordering () =
  let trace, () =
    Obs.Trace.collecting (fun () ->
        Obs.Trace.with_span "a" (fun () ->
            Obs.Trace.with_span "b" (fun () -> ());
            Obs.Trace.with_span "c" (fun () -> ()));
        Obs.Trace.with_span "d" (fun () -> ()))
  in
  Alcotest.(check (list string)) "start order" [ "a"; "b"; "c"; "d" ]
    (names trace);
  let span name = List.hd (Obs.Trace.find trace ~name) in
  let a = span "a" and b = span "b" and c = span "c" and d = span "d" in
  Alcotest.(check bool) "a is a root" true (a.Obs.Trace.parent = None);
  Alcotest.(check bool) "b nests in a" true
    (b.Obs.Trace.parent = Some a.Obs.Trace.id);
  Alcotest.(check bool) "c nests in a, not b" true
    (c.Obs.Trace.parent = Some a.Obs.Trace.id);
  Alcotest.(check bool) "d is a root" true (d.Obs.Trace.parent = None);
  List.iter
    (fun (s : Obs.Trace.span) ->
       Alcotest.(check bool)
         (s.Obs.Trace.name ^ " duration non-negative")
         true (s.Obs.Trace.dur_ns >= 0L))
    (Obs.Trace.spans trace);
  Alcotest.(check bool) "siblings ordered" true
    (c.Obs.Trace.start_ns >= b.Obs.Trace.start_ns);
  Alcotest.(check bool) "parent starts first" true
    (b.Obs.Trace.start_ns >= a.Obs.Trace.start_ns)

let test_span_attrs () =
  let trace, () =
    Obs.Trace.collecting (fun () ->
        Obs.Trace.with_span
          ~attrs:[ ("x", Obs.Trace.Int 1) ]
          "s"
          (fun () -> Obs.Trace.add_attr "y" (Obs.Trace.String "two")))
  in
  let s = List.hd (Obs.Trace.spans trace) in
  Alcotest.(check (list string)) "attr order preserved" [ "x"; "y" ]
    (List.map fst s.Obs.Trace.attrs)

let test_span_exception_safety () =
  let trace, () =
    Obs.Trace.collecting (fun () ->
        (try Obs.Trace.with_span "boom" (fun () -> raise Exit) with
         | Exit -> ());
        Obs.Trace.with_span "after" (fun () -> ()))
  in
  let after = List.hd (Obs.Trace.find trace ~name:"after") in
  Alcotest.(check bool) "stack unwound: 'after' is a root" true
    (after.Obs.Trace.parent = None);
  Alcotest.(check int) "both spans recorded" 2 (Obs.Trace.span_count trace)

let test_disabled_tracing_is_noop () =
  Alcotest.(check bool) "no collector installed" false (Obs.Trace.enabled ());
  Alcotest.(check int) "with_span just runs f" 41
    (Obs.Trace.with_span "ignored" (fun () -> 41))

let test_timer () =
  let value, dt = Obs.Trace.time (fun () -> List.init 1000 Fun.id) in
  Alcotest.(check int) "result passed through" 1000 (List.length value);
  Alcotest.(check bool) "non-negative duration" true (dt >= 0.)

(* ---------------- Metrics ---------------- *)

let test_counter_aggregation () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "jobs.Spark";
  Obs.Metrics.incr m "jobs.Spark" ~by:2;
  Obs.Metrics.incr m "jobs.Hadoop";
  Alcotest.(check int) "accumulates" 3 (Obs.Metrics.counter m "jobs.Spark");
  Alcotest.(check int) "absent counter reads 0" 0
    (Obs.Metrics.counter m "jobs.Naiad");
  Alcotest.(check (list (pair string int))) "sorted dump"
    [ ("jobs.Hadoop", 1); ("jobs.Spark", 3) ]
    (Obs.Metrics.counters m)

let test_gauges () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.set_gauge m "operators" 7.;
  Obs.Metrics.set_gauge m "operators" 9.;
  Alcotest.(check (option (float 1e-9))) "last write wins" (Some 9.)
    (Obs.Metrics.gauge m "operators")

let test_histogram_quantiles () =
  let m = Obs.Metrics.create () in
  List.iter
    (fun i -> Obs.Metrics.observe m "h" (float_of_int i))
    (List.init 100 (fun i -> i + 1));
  let q p = Option.get (Obs.Metrics.quantile m "h" p) in
  Alcotest.(check (float 1e-9)) "q0 = min" 1. (q 0.);
  Alcotest.(check (float 1e-9)) "q1 = max" 100. (q 1.);
  Alcotest.(check (float 1e-9)) "median interpolates" 50.5 (q 0.5);
  Alcotest.(check (float 1e-9)) "p90" 90.1 (q 0.9);
  let stats = Option.get (Obs.Metrics.histogram m "h") in
  Alcotest.(check int) "count" 100 stats.Obs.Metrics.count;
  Alcotest.(check (float 1e-9)) "mean" 50.5 stats.Obs.Metrics.mean;
  Alcotest.(check (option (float 1e-9))) "empty histogram" None
    (Obs.Metrics.quantile m "missing" 0.5);
  Alcotest.(check (option (float 1e-9))) "out-of-range q" None
    (Obs.Metrics.quantile m "h" 1.5);
  let single = Obs.Metrics.create () in
  Obs.Metrics.observe single "one" 42.;
  Alcotest.(check (option (float 1e-9))) "singleton" (Some 42.)
    (Obs.Metrics.quantile single "one" 0.5)

(* A histogram keeps its samples unboxed: one word each, plus a
   doubling array's slack, where a list of boxed floats took five. Its
   stats are those of the list it replaced (newest first, then sorted),
   bit for bit, also where NaN and -0.0 against 0.0 make the sort's
   input order visible. *)
let test_histogram_storage () =
  let n = 10_000 in
  let m = Obs.Metrics.create () in
  Obs.Metrics.observe m "h" 0.;
  let before = Obj.reachable_words (Obj.repr m) in
  for i = 1 to n do
    Obs.Metrics.observe m "h" (float_of_int (i mod 97))
  done;
  let grown = Obj.reachable_words (Obj.repr m) - before in
  Alcotest.(check bool)
    (Printf.sprintf "%d samples hold %d words (at most 2 each)" n grown)
    true (grown <= 2 * n);
  let bits x = Int64.bits_of_float x in
  let reference values =
    (* the list-based registry: newest first, sorted, interpolated *)
    let a = Array.of_list (List.rev values) in
    Array.sort compare a;
    let len = Array.length a in
    let q p =
      let h = p *. float_of_int (len - 1) in
      let lo = int_of_float (floor h) in
      let hi = min (lo + 1) (len - 1) in
      a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))
    in
    [ a.(0); a.(len - 1); Array.fold_left ( +. ) 0. a /. float_of_int len;
      q 0.5; q 0.9; q 0.99; q 0.25 ]
  in
  let rng = Random.State.make [| 7 |] in
  let pick () =
    match Random.State.int rng 6 with
    | 0 -> Float.nan
    | 1 -> 0.
    | 2 -> -0.
    | 3 -> -.Float.nan
    | _ -> float_of_int (Random.State.int rng 4 - 2)
  in
  for trial = 1 to 50 do
    let values = List.init (1 + Random.State.int rng 40) (fun _ -> pick ()) in
    let m = Obs.Metrics.create () in
    List.iter (Obs.Metrics.observe m "h") values;
    let s = Option.get (Obs.Metrics.histogram m "h") in
    let got =
      [ s.min; s.max; s.mean; s.p50; s.p90; s.p99;
        Option.get (Obs.Metrics.quantile m "h" 0.25) ]
    in
    Alcotest.(check int) "count" (List.length values) s.count;
    Alcotest.(check (list int64))
      (Printf.sprintf "trial %d: stats bit-identical to the list's" trial)
      (List.map bits (reference values)) (List.map bits got);
    let fields (s : Obs.Metrics.histogram_stats) =
      List.map bits [ s.min; s.max; s.mean; s.p50; s.p90; s.p99 ]
    in
    Alcotest.(check (list (pair string (list int64))))
      "histograms lists the same stats" [ ("h", fields s) ]
      (List.map (fun (name, s) -> (name, fields s)) (Obs.Metrics.histograms m))
  done

let test_prediction_records () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.record_prediction m ~workflow:"wf" ~job:"wf/job0"
    ~backend:"Spark" ~predicted_s:12. ~observed_s:10. ();
  Obs.Metrics.record_prediction m ~workflow:"wf" ~job:"wf/job1"
    ~backend:"Hadoop" ~predicted_s:5. ~observed_s:10. ();
  let preds = Obs.Metrics.predictions m in
  Alcotest.(check int) "two records" 2 (List.length preds);
  Alcotest.(check (float 1e-9)) "signed over-prediction" 0.2
    (Obs.Metrics.rel_error (List.nth preds 0));
  Alcotest.(check (float 1e-9)) "signed under-prediction" (-0.5)
    (Obs.Metrics.rel_error (List.nth preds 1));
  let err = Option.get (Obs.Metrics.prediction_error m) in
  Alcotest.(check (float 1e-9)) "mean |error|" 0.35 err.Obs.Metrics.mean;
  Alcotest.(check bool) "pp renders" true
    (String.length (Format.asprintf "%a" Obs.Metrics.pp m) > 0)

(* ---------------- Export ---------------- *)

let test_json_escape () =
  Alcotest.(check string) "quotes and backslash" "a \\\"b\\\" \\\\c"
    (Obs.Export.json_escape "a \"b\" \\c");
  Alcotest.(check string) "newline, tab" "l1\\nl2\\tend"
    (Obs.Export.json_escape "l1\nl2\tend");
  Alcotest.(check string) "control char" "nul\\u0000 esc\\u001b"
    (Obs.Export.json_escape "nul\000 esc\027");
  Alcotest.(check string) "plain text untouched" "pagerank/job0 <= 42%"
    (Obs.Export.json_escape "pagerank/job0 <= 42%")

let nasty = "we\\ird \"name\"\nwith\tcontrol\001chars"

let nasty_trace () =
  fst
    (Obs.Trace.collecting (fun () ->
         Obs.Trace.with_span
           ~attrs:
             [ (nasty, Obs.Trace.String nasty);
               ("inf", Obs.Trace.Float infinity);
               ("nan", Obs.Trace.Float Float.nan);
               ("n", Obs.Trace.Int (-3));
               ("ok", Obs.Trace.Bool true) ]
           nasty
           (fun () -> Obs.Trace.with_span "child" (fun () -> ()))))

let test_chrome_trace_escaping () =
  let json = Obs.Export.chrome_trace (nasty_trace ()) in
  check_valid_json "chrome_trace with hostile attrs" json

let test_jsonl_lines () =
  let lines =
    String.split_on_char '\n' (Obs.Export.jsonl (nasty_trace ()))
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per span" 2 (List.length lines);
  List.iter (check_valid_json "jsonl line") lines

let test_summary_renders () =
  let out = Format.asprintf "%a" Obs.Export.summary (nasty_trace ()) in
  Alcotest.(check bool) "summary mentions child span" true
    (String.length out > 0
     && String.split_on_char '\n' out
        |> List.exists (fun l ->
               String.trim l <> "" && String.length l > 2
               && String.sub (String.trim l) 0 5 = "child"))

(* ---------------- End-to-end pipeline traces ---------------- *)

let cluster = Engines.Cluster.local_seven

let m = Musketeer.create ~cluster ()

let kv_schema =
  Schema.make
    [ { Schema.name = "k"; ty = Value.Tint };
      { Schema.name = "v"; ty = Value.Tint } ]

let kv_table rows =
  Table.create kv_schema
    (List.map (fun (k, v) -> [| Value.Int k; Value.Int v |]) rows)

let hdfs_with bindings =
  let hdfs = Engines.Hdfs.create () in
  List.iter
    (fun (name, table, mb) -> Engines.Hdfs.put hdfs name ~modeled_mb:mb table)
    bindings;
  hdfs

let has_span trace name = Obs.Trace.find trace ~name <> []

(* calibration is one span tree: the probe graphs are built and executed
   once each under the [calibrate] root and priced per backend, never
   run through an engine *)
let test_calibrate_trace () =
  let trace, _ = Obs.Trace.collecting (fun () -> Musketeer.create ~cluster ()) in
  let roots =
    List.filter
      (fun (s : Obs.Trace.span) -> s.Obs.Trace.parent = None)
      (Obs.Trace.spans trace)
  in
  Alcotest.(check (list string)) "one root" [ "calibrate" ]
    (List.map (fun (s : Obs.Trace.span) -> s.Obs.Trace.name) roots);
  let executes = Obs.Trace.find trace ~name:"calibrate.execute" in
  Alcotest.(check (list string)) "one execution per probe graph"
    [ "scan"; "join"; "pr_1"; "pr_4" ]
    (List.map
       (fun (s : Obs.Trace.span) ->
          match List.assoc_opt "probe" s.Obs.Trace.attrs with
          | Some (Obs.Trace.String p) -> p
          | _ -> "?")
       executes);
  List.iter
    (fun (s : Obs.Trace.span) ->
       Alcotest.(check bool) "rows_in" true
         (match List.assoc_opt "rows_in" s.Obs.Trace.attrs with
          | Some (Obs.Trace.Int n) -> n > 0
          | _ -> false))
    executes;
  Alcotest.(check int) "priced on every backend"
    (List.length Engines.Backend.extended)
    (List.length (Obs.Trace.find trace ~name:"calibrate.price"));
  Alcotest.(check int) "no engine runs" 0
    (List.length (Obs.Trace.find trace ~name:"engine.run"))

(* run --trace equivalent on a small BEER workflow: every pipeline
   stage must appear as a span and the Chrome export must be JSON *)
let test_pipeline_trace_golden () =
  let source =
    "r0 = INPUT 'r';\n\
     s = SELECT k, v FROM r0 WHERE v > 5;\n\
     t = SELECT k, SUM(v) AS total FROM s GROUP BY k;\n\
     OUTPUT t;\n"
  in
  let workflow = "obs-e2e" in
  let hdfs =
    hdfs_with [ ("r", kv_table (List.init 60 (fun i -> (i mod 6, i))), 64.) ]
  in
  let trace, () =
    Obs.Trace.collecting (fun () ->
        let graph = Frontends.Beer.parse source in
        match Musketeer.plan m ~workflow ~hdfs graph with
        | None -> Alcotest.fail "no feasible plan"
        | Some (plan, g') -> (
          match Musketeer.execute_plan m ~workflow ~hdfs ~graph:g' plan with
          | Error e ->
            Alcotest.failf "execution failed: %s"
              (Engines.Report.error_to_string e)
          | Ok _ -> ()))
  in
  List.iter
    (fun stage ->
       Alcotest.(check bool) ("stage span: " ^ stage) true
         (has_span trace stage))
    [ "frontend.parse"; "ir.build"; "optimize"; "ir.typecheck"; "plan";
      "partition"; "execute"; "codegen"; "engine.run" ];
  Alcotest.(check bool) "one span per dispatched job" true
    (List.length (Obs.Trace.find_prefix trace ~prefix:"job:") >= 1);
  let job = List.hd (Obs.Trace.find_prefix trace ~prefix:"job:") in
  List.iter
    (fun field ->
       Alcotest.(check bool) ("job breakdown attr: " ^ field) true
         (List.mem_assoc field job.Obs.Trace.attrs))
    [ "backend"; "makespan_s"; "overhead_s"; "pull_s"; "load_s";
      "process_s"; "comm_s"; "push_s" ];
  check_valid_json "pipeline chrome trace" (Obs.Export.chrome_trace trace);
  (* the executor joined the cost model's estimate with the observation *)
  let preds =
    List.filter
      (fun (p : Obs.Metrics.prediction) -> p.Obs.Metrics.workflow = workflow)
      (Obs.Metrics.predictions Obs.Metrics.default)
  in
  Alcotest.(check bool) "prediction recorded per job" true
    (List.length preds >= 1);
  List.iter
    (fun (p : Obs.Metrics.prediction) ->
       Alcotest.(check bool) "observed makespan positive" true
         (p.Obs.Metrics.observed_s > 0.);
       Alcotest.(check bool) "predicted makespan finite" true
         (Float.is_finite p.Obs.Metrics.predicted_s))
    preds

(* WHILE on a MapReduce engine: the dynamically expanded iterations
   must show up as spans, each with its per-iteration jobs *)
let test_while_expansion_trace () =
  let source =
    "acc = INPUT 'seed';\n\
     WHILE (ITERATION < 3) {\n\
     \  acc = MAP acc SET v = v + 1;\n\
     }\n\
     OUTPUT acc;\n"
  in
  let workflow = "obs-while" in
  let hdfs = hdfs_with [ ("seed", kv_table [ (1, 0); (2, 5) ], 32.) ] in
  let trace, () =
    Obs.Trace.collecting (fun () ->
        let graph = Frontends.Beer.parse source in
        match
          Musketeer.plan m ~backends:[ Engines.Backend.Hadoop ] ~workflow
            ~hdfs graph
        with
        | None -> Alcotest.fail "no Hadoop plan"
        | Some (plan, g') -> (
          match Musketeer.execute_plan m ~workflow ~hdfs ~graph:g' plan with
          | Error e ->
            Alcotest.failf "execution failed: %s"
              (Engines.Report.error_to_string e)
          | Ok result ->
            Alcotest.(check bool) "expanded into several jobs" true
              (List.length result.Musketeer.Executor.reports >= 3)))
  in
  let iters = Obs.Trace.find trace ~name:"while.iter" in
  Alcotest.(check int) "one span per WHILE iteration" 3 (List.length iters);
  Alcotest.(check bool) "per-iteration job spans" true
    (List.length (Obs.Trace.find_prefix trace ~prefix:"job:acc/iter") >= 3);
  check_valid_json "while chrome trace" (Obs.Export.chrome_trace trace)

(* Every span of a traced run sits in one of the pipeline's stage
   trees: calibration, the IR build (a frontend parse, or a builder's
   graph), planning and execution. A run of every zoo workflow, as the
   CLI's [run] does it, leaves no other root; k-means' arg-min diamonds
   run as one [kernel.fused] span each, under [engine.run]. A short
   served trace is one tree per submission, after calibration. *)
let roots trace =
  List.filter_map
    (fun (s : Obs.Trace.span) ->
       if s.parent = None then Some s.name else None)
    (Obs.Trace.spans trace)

let ancestors trace (s : Obs.Trace.span) =
  let by_id = Hashtbl.create 64 in
  List.iter
    (fun (sp : Obs.Trace.span) -> Hashtbl.replace by_id sp.id sp)
    (Obs.Trace.spans trace);
  let rec up acc (s : Obs.Trace.span) =
    match Option.bind s.parent (Hashtbl.find_opt by_id) with
    | Some p -> up (p.name :: acc) p
    | None -> List.rev acc
  in
  up [] s

let test_no_orphan_roots () =
  let stages =
    [ "calibrate"; "frontend.parse"; "ir.build"; "plan"; "execute" ]
  in
  let cluster = Engines.Cluster.ec2 ~nodes:16 in
  List.iter
    (fun (name, load) ->
       let hdfs, graph = load () in
       let trace, () =
         (* the diamond's kernel is columnar *)
         Relation.Column.with_enabled true @@ fun () ->
         Obs.Trace.collecting (fun () ->
             let m = Musketeer.create ~cluster () in
             match Musketeer.plan m ~workflow:name ~hdfs graph with
             | None -> Alcotest.fail (name ^ ": no plan")
             | Some (plan, g') -> (
               match
                 Musketeer.execute_plan m ~workflow:name ~hdfs ~graph:g' plan
               with
               | Ok _ -> ()
               | Error e ->
                 Alcotest.fail (name ^ ": " ^ Engines.Report.error_to_string e)))
       in
       List.iter
         (fun root ->
            Alcotest.(check bool) (name ^ ": root " ^ root ^ " is a stage") true
              (List.mem root stages))
         (roots trace);
       if name = "kmeans" then begin
         let diamonds =
           List.filter
             (fun (s : Obs.Trace.span) ->
                List.assoc_opt "ops" s.attrs
                = Some (Obs.Trace.String "CROSS,MAP,GROUP BY,JOIN,SELECT"))
             (Obs.Trace.find trace ~name:"kernel.fused")
         in
         Alcotest.(check int) "k-means: one diamond kernel per iteration" 5
           (List.length diamonds);
         List.iter
           (fun (s : Obs.Trace.span) ->
              Alcotest.(check bool) "k-means: diamond under engine.run" true
                (List.mem "engine.run" (ancestors trace s));
              Alcotest.(check bool) "k-means: rows_in counts both CROSS inputs"
                true
                (match List.assoc_opt "rows_in" s.attrs with
                 | Some (Obs.Trace.Int n) ->
                   n > Table.row_count (Engines.Hdfs.table hdfs "points")
                 | _ -> false))
           diamonds;
         Alcotest.(check (list string)) "k-means: no CROSS kernel" []
           (List.filter_map
              (fun (s : Obs.Trace.span) ->
                 match List.assoc_opt "op" s.attrs with
                 | Some (Obs.Trace.String ("CROSS" as op)) -> Some op
                 | _ -> None)
              (Obs.Trace.find trace ~name:"kernel"))
       end)
    Experiments.Common.zoo;
  (* the submissions are built before the trace starts, as the CLI's
     [serve] builds its workload before serving it *)
  let workflows = [ "kmeans"; "join" ] in
  let hdfs = Engines.Hdfs.create () in
  let subs =
    List.mapi
      (fun i name ->
         let h, graph = (List.assoc name Experiments.Common.zoo) () in
         List.iter
           (fun r ->
              Engines.Hdfs.put hdfs r ~modeled_mb:(Engines.Hdfs.modeled_mb h r)
                (Engines.Hdfs.table h r))
           (Engines.Hdfs.list h);
         { Serve.Service.tenant = "t"; workflow = name; graph;
           arrival_s = float_of_int i; slo_s = None })
      (workflows @ workflows)
  in
  let trace, outcomes =
    Obs.Trace.collecting (fun () ->
        fst (Serve.Service.run (Musketeer.create ~cluster ()) ~hdfs subs))
  in
  List.iter
    (fun (o : Serve.Service.outcome) ->
       Alcotest.(check (option string)) "served" None o.error)
    outcomes;
  Alcotest.(check (list string))
    "serve: calibration, then one tree per submission"
    ("calibrate" :: List.map (fun _ -> "serve.submit") subs)
    (roots trace)

let () =
  Alcotest.run "obs"
    [ ( "trace",
        [ Alcotest.test_case "nesting and ordering" `Quick
            test_span_nesting_and_ordering;
          Alcotest.test_case "attributes" `Quick test_span_attrs;
          Alcotest.test_case "exception safety" `Quick
            test_span_exception_safety;
          Alcotest.test_case "disabled is no-op" `Quick
            test_disabled_tracing_is_noop;
          Alcotest.test_case "timer" `Quick test_timer ] );
      ( "metrics",
        [ Alcotest.test_case "counter aggregation" `Quick
            test_counter_aggregation;
          Alcotest.test_case "gauges" `Quick test_gauges;
          Alcotest.test_case "histogram quantiles" `Quick
            test_histogram_quantiles;
          Alcotest.test_case "histogram storage" `Quick
            test_histogram_storage;
          Alcotest.test_case "prediction records" `Quick
            test_prediction_records ] );
      ( "export",
        [ Alcotest.test_case "json escaping" `Quick test_json_escape;
          Alcotest.test_case "chrome trace escaping" `Quick
            test_chrome_trace_escaping;
          Alcotest.test_case "jsonl lines" `Quick test_jsonl_lines;
          Alcotest.test_case "summary" `Quick test_summary_renders ] );
      ( "pipeline",
        [ Alcotest.test_case "BEER workflow trace (golden stages)" `Quick
            test_pipeline_trace_golden;
          Alcotest.test_case "WHILE expansion trace" `Quick
            test_while_expansion_trace;
          Alcotest.test_case "calibration span tree" `Quick
            test_calibrate_trace;
          Alcotest.test_case "no orphan roots in run and serve traces" `Quick
            test_no_orphan_roots ] ) ]
