(* Continuous cost-model calibration from the run ledger (§5.2).

   The cost model's per-engine rates come from one-off probing
   (Profile.calibrate); every executed job then records predicted vs.
   observed makespan. This module closes the loop: fit one
   multiplicative correction factor per engine from the ledger's
   records; the caller puts them into its profile
   (Profile.with_calibration) and Cost scales its estimates by them, so
   systematic over/under-prediction shrinks run over run.

   Fitting is on observed / *raw* predicted (the estimate before any
   factor was applied) — factors therefore never compound across runs.
   Per record the per-engine ratio is summarized by its median (robust
   to the odd straggler), and medians are smoothed across records with
   an EWMA, newest last. *)

let default_min_samples = 2

let default_alpha = 0.5

(* a factor outside this range says the model is broken, not miscalibrated *)
let clamp_lo = 0.2

let clamp_hi = 5.0

let clamp f = Float.min clamp_hi (Float.max clamp_lo f)

let median = function
  | [] -> None
  | values ->
    let a = Array.of_list values in
    Array.sort compare a;
    let n = Array.length a in
    Some
      (if n mod 2 = 1 then a.(n / 2)
       else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.)

let fit ?(min_samples = default_min_samples) ?(alpha = default_alpha)
    (records : Obs.Ledger.record list) =
  (* backend -> (ewma of per-run medians, total sample count) *)
  let acc : (string, float * int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (r : Obs.Ledger.record) ->
       let per_run : (string, float list) Hashtbl.t = Hashtbl.create 8 in
       List.iter
         (fun (p : Obs.Metrics.prediction) ->
            if p.observed_s > 0. && p.raw_predicted_s > 1e-9 then begin
              let prev =
                Option.value ~default:[]
                  (Hashtbl.find_opt per_run p.backend)
              in
              Hashtbl.replace per_run p.backend
                ((p.observed_s /. p.raw_predicted_s) :: prev)
            end)
         r.Obs.Ledger.predictions;
       Hashtbl.iter
         (fun backend ratios ->
            match median ratios with
            | None -> ()
            | Some m ->
              (* the EWMA starts from the uncalibrated factor 1.0 and
                 moves a fraction [alpha] toward each run's median, so
                 a stable workload converges geometrically instead of
                 jumping — one outlier run cannot swing the model *)
              let f0, count =
                match Hashtbl.find_opt acc backend with
                | None -> (1.0, 0)
                | Some (f, count) -> (f, count)
              in
              let ewma = ((1. -. alpha) *. f0) +. (alpha *. m) in
              Hashtbl.replace acc backend (ewma, count + List.length ratios))
         per_run)
    records;
  Hashtbl.fold
    (fun backend (ewma, count) factors ->
       if count >= min_samples then (backend, clamp ewma) :: factors
       else factors)
    acc []
  |> List.sort compare

let of_ledger ?min_samples ?alpha records =
  let factors = fit ?min_samples ?alpha records in
  List.iter
    (fun (backend, f) ->
       Obs.Metrics.set_gauge Obs.Metrics.default
         ("calibration.factor." ^ backend) f)
    factors;
  factors
