type histogram_stats = {
  count : int;
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

type prediction = {
  workflow : string;
  job : string;
  backend : string;
  predicted_s : float;
  raw_predicted_s : float;
  observed_s : float;
}

let rel_error p =
  if p.observed_s > 0. then (p.predicted_s -. p.observed_s) /. p.observed_s
  else infinity

type recovery_event = {
  rec_workflow : string;
  rec_job : string;
  from_backend : string;
  to_backend : string;
  attempts : int;
  first_error : string;
  recovery_s : float;
}

(* a histogram's samples in record order, unboxed: a growable float
   array holds one word a sample, where a [float list] held five *)
type samples = {
  mutable data : float array;
  mutable len : int;
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  histos : (string, samples) Hashtbl.t;
  mutable preds : prediction list;              (* reverse record order *)
  mutable recs : recovery_event list;           (* reverse record order *)
}

let create () =
  { counters = Hashtbl.create 16; gauges = Hashtbl.create 16;
    histos = Hashtbl.create 16; preds = []; recs = [] }

let default = create ()

let reset t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.gauges;
  Hashtbl.reset t.histos;
  t.preds <- [];
  t.recs <- []

let cell tbl name init =
  match Hashtbl.find_opt tbl name with
  | Some r -> r
  | None ->
    let r = ref init in
    Hashtbl.add tbl name r;
    r

let incr t ?(by = 1) name =
  let r = cell t.counters name 0 in
  r := !r + by

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let sorted_bindings tbl =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) tbl []
  |> List.sort compare

let counters t = sorted_bindings t.counters

let set_gauge t name v = cell t.gauges name v := v

let add_gauge t name v =
  let r = cell t.gauges name 0. in
  r := !r +. v

let gauge t name = Option.map ( ! ) (Hashtbl.find_opt t.gauges name)

let gauges t = sorted_bindings t.gauges

let observe t name v =
  let s =
    match Hashtbl.find_opt t.histos name with
    | Some s -> s
    | None ->
      let s = { data = [||]; len = 0 } in
      Hashtbl.add t.histos name s;
      s
  in
  if s.len = Array.length s.data then begin
    let data = Array.make (max 8 (2 * s.len)) 0. in
    Array.blit s.data 0 data 0 s.len;
    s.data <- data
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

(* newest first, the order the stats have always been computed in: a
   sort that is not stable may place -0.0 and 0.0 by it *)
let newest_first s = Array.init s.len (fun i -> s.data.(s.len - 1 - i))

(* linear interpolation between order statistics *)
let quantile_of_sorted a q =
  let n = Array.length a in
  if n = 0 || q < 0. || q > 1. then None
  else begin
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float (floor h) in
    let hi = min (lo + 1) (n - 1) in
    let frac = h -. float_of_int lo in
    Some (a.(lo) +. (frac *. (a.(hi) -. a.(lo))))
  end

let stats_of_array a =
  if Array.length a = 0 then None
  else begin
    Array.sort compare a;
    let n = Array.length a in
    let sum = Array.fold_left ( +. ) 0. a in
    let q p = Option.get (quantile_of_sorted a p) in
    Some
      { count = n; min = a.(0); max = a.(n - 1);
        mean = sum /. float_of_int n; p50 = q 0.5; p90 = q 0.9; p99 = q 0.99 }
  end

let stats_of_values values = stats_of_array (Array.of_list values)

let quantile t name q =
  match Hashtbl.find_opt t.histos name with
  | None -> None
  | Some s ->
    let a = newest_first s in
    Array.sort compare a;
    quantile_of_sorted a q

let histogram t name =
  Option.bind (Hashtbl.find_opt t.histos name) (fun s ->
      stats_of_array (newest_first s))

let histograms t =
  Hashtbl.fold
    (fun name s acc ->
       match stats_of_array (newest_first s) with
       | Some s -> (name, s) :: acc
       | None -> acc)
    t.histos []
  |> List.sort compare

let record_prediction t ?raw_predicted_s ~workflow ~job ~backend ~predicted_s
    ~observed_s () =
  let raw_predicted_s =
    Option.value raw_predicted_s ~default:predicted_s
  in
  t.preds <-
    { workflow; job; backend; predicted_s; raw_predicted_s; observed_s }
    :: t.preds

let predictions t = List.rev t.preds

let prediction_error t =
  stats_of_values
    (List.filter_map
       (fun p ->
          let e = rel_error p in
          if Float.is_finite e then Some (Float.abs e) else None)
       t.preds)

let record_recovery t ~workflow ~job ~from_backend ~to_backend ~attempts
    ~first_error ~recovery_s =
  t.recs <-
    { rec_workflow = workflow; rec_job = job; from_backend; to_backend;
      attempts; first_error; recovery_s }
    :: t.recs

let recoveries t = List.rev t.recs

let pp_recoveries ppf t =
  match recoveries t with
  | [] -> ()
  | recs ->
    Format.fprintf ppf "recovered jobs:@.";
    Format.fprintf ppf "  %-28s %-10s %-10s %8s %9s  %s@." "job" "planned"
      "ran on" "attempts" "recovery" "first error";
    List.iter
      (fun r ->
         Format.fprintf ppf "  %-28s %-10s %-10s %8d %8.1fs  %s@." r.rec_job
           r.from_backend r.to_backend r.attempts r.recovery_s r.first_error)
      recs

let pp_stats ppf s =
  Format.fprintf ppf
    "n=%d min=%.3g mean=%.3g p50=%.3g p90=%.3g p99=%.3g max=%.3g"
    s.count s.min s.mean s.p50 s.p90 s.p99 s.max

let pp_predictions ppf t =
  match predictions t with
  | [] -> Format.fprintf ppf "no prediction records@."
  | preds ->
    Format.fprintf ppf "predicted vs observed makespan per job:@.";
    Format.fprintf ppf "  %-28s %-10s %10s %10s %8s@." "job" "backend"
      "predicted" "observed" "error";
    List.iter
      (fun p ->
         let e = rel_error p in
         let err =
           if Float.is_finite e then Printf.sprintf "%+7.1f%%" (100. *. e)
           else "n/a"  (* nothing observed: no error to report *)
         in
         Format.fprintf ppf "  %-28s %-10s %9.1fs %9.1fs %8s@."
           p.job p.backend p.predicted_s p.observed_s err)
      preds;
    (match prediction_error t with
     | Some s ->
       Format.fprintf ppf "  |relative error|: %a@." pp_stats s
     | None -> ())

let pp ppf t =
  let section title = Format.fprintf ppf "%s:@." title in
  (match counters t with
   | [] -> ()
   | cs ->
     section "counters";
     List.iter
       (fun (name, v) -> Format.fprintf ppf "  %-36s %d@." name v)
       cs);
  (match gauges t with
   | [] -> ()
   | gs ->
     section "gauges";
     List.iter
       (fun (name, v) -> Format.fprintf ppf "  %-36s %g@." name v)
       gs);
  (match histograms t with
   | [] -> ()
   | hs ->
     section "histograms";
     List.iter
       (fun (name, s) ->
          Format.fprintf ppf "  %-36s %a@." name pp_stats s)
       hs);
  pp_recoveries ppf t;
  pp_predictions ppf t

(* ---- JSON (stats --json, the run ledger) ---- *)

let json_of_stats (s : histogram_stats) =
  Json.Obj
    [ ("count", Json.Number (float_of_int s.count));
      ("min", Json.Number s.min); ("max", Json.Number s.max);
      ("mean", Json.Number s.mean); ("p50", Json.Number s.p50);
      ("p90", Json.Number s.p90); ("p99", Json.Number s.p99) ]

let stats_of_json j =
  { count = Json.get_int j "count";
    min = Json.get_float j "min"; max = Json.get_float j "max";
    mean = Json.get_float j "mean"; p50 = Json.get_float j "p50";
    p90 = Json.get_float j "p90"; p99 = Json.get_float j "p99" }

let json_of_prediction p =
  Json.Obj
    [ ("workflow", Json.String p.workflow); ("job", Json.String p.job);
      ("backend", Json.String p.backend);
      ("predicted_s", Json.Number p.predicted_s);
      ("raw_predicted_s", Json.Number p.raw_predicted_s);
      ("observed_s", Json.Number p.observed_s) ]

let prediction_of_json j =
  { workflow = Json.get_string j "workflow";
    job = Json.get_string j "job";
    backend = Json.get_string j "backend";
    predicted_s = Json.get_float j "predicted_s";
    raw_predicted_s =
      Json.get_float j "raw_predicted_s"
        ~default:(Json.get_float j "predicted_s");
    observed_s = Json.get_float j "observed_s" }

let to_json t =
  Json.Obj
    [ ("counters",
       Json.Obj
         (List.map
            (fun (name, v) -> (name, Json.Number (float_of_int v)))
            (counters t)));
      ("gauges",
       Json.Obj (List.map (fun (name, v) -> (name, Json.Number v)) (gauges t)));
      ("histograms",
       Json.Obj
         (List.map (fun (name, s) -> (name, json_of_stats s)) (histograms t)));
      ("predictions", Json.List (List.map json_of_prediction (predictions t)));
      ("recoveries",
       Json.List
         (List.map
            (fun r ->
               Json.Obj
                 [ ("workflow", Json.String r.rec_workflow);
                   ("job", Json.String r.rec_job);
                   ("from_backend", Json.String r.from_backend);
                   ("to_backend", Json.String r.to_backend);
                   ("attempts", Json.Number (float_of_int r.attempts));
                   ("first_error", Json.String r.first_error);
                   ("recovery_s", Json.Number r.recovery_s) ])
            (recoveries t)));
      ("prediction_error",
       match prediction_error t with
       | Some s -> json_of_stats s
       | None -> Json.Null) ]
