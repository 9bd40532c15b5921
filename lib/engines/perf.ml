type volumes = {
  input_mb : float;
  output_mb : float;
  load_mb : float;
  process_mb : float;
  scan_extra_mb : float;
  comm_mb : float;
  iterations : int;
}

let zero_volumes =
  { input_mb = 0.; output_mb = 0.; load_mb = 0.; process_mb = 0.;
    scan_extra_mb = 0.; comm_mb = 0.; iterations = 1 }

type rates = {
  overhead_s : float;
  pull_mb_s : float;
  load_mb_s : float option;
  process_mb_s : float;
  comm_mb_s : float;
  push_mb_s : float;
  iter_overhead_s : float;
}

let safe_div mb rate = if mb <= 0. then 0. else mb /. max 1e-6 rate

let makespan rates volumes =
  let breakdown =
    { Report.overhead_s = rates.overhead_s;
      pull_s = safe_div volumes.input_mb rates.pull_mb_s;
      load_s =
        (match rates.load_mb_s with
         | None -> 0.
         | Some rate -> safe_div volumes.load_mb rate);
      process_s =
        safe_div
          (volumes.process_mb +. volumes.scan_extra_mb)
          rates.process_mb_s;
      comm_s = safe_div volumes.comm_mb rates.comm_mb_s;
      push_s = safe_div volumes.output_mb rates.push_mb_s }
  in
  let iter_cost =
    float_of_int (max 0 (volumes.iterations - 1)) *. rates.iter_overhead_s
  in
  (breakdown, Report.total breakdown +. iter_cost)

let op_weight (kind : Ir.Operator.kind) =
  match kind with
  | Ir.Operator.Input _ -> 0.
  | Ir.Operator.Select _ | Ir.Operator.Project _ -> 1.0
  | Ir.Operator.Map _ -> 1.1
  | Ir.Operator.Union -> 0.4
  | Ir.Operator.Distinct -> 1.3
  | Ir.Operator.Intersect | Ir.Operator.Difference -> 1.5
  | Ir.Operator.Join _ | Ir.Operator.Left_outer_join _ -> 1.8
  | Ir.Operator.Semi_join _ | Ir.Operator.Anti_join _ -> 1.4
  | Ir.Operator.Cross -> 3.5
  | Ir.Operator.Group_by _ -> 1.5
  | Ir.Operator.Agg _ -> 1.0
  | Ir.Operator.Sort _ -> 2.2
  | Ir.Operator.Top_k _ -> 1.4
  | Ir.Operator.Udf u -> u.cost_factor
  | Ir.Operator.While _ -> 0.  (* charged via its body *)
  | Ir.Operator.Black_box _ -> 1.0

(* one pass over the input does all the chain's work, so charge the
   most expensive member once instead of every member's full scan *)
let fused_weight kinds =
  List.fold_left (fun w k -> Float.max w (op_weight k)) 1.0 kinds

type charges = (int, [ `Chain of Ir.Operator.kind list | `Merged ]) Hashtbl.t

let charges plan (g : Ir.Operator.graph) ~within =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun c ->
       match Ir.Fusion.row_local c with
       | first :: (_ :: _ as rest) as members
         when List.for_all within members ->
         Hashtbl.replace tbl first
           (`Chain
              (List.map (fun id -> (Ir.Dag.node g id).Ir.Operator.kind)
                 members));
         List.iter (fun id -> Hashtbl.replace tbl id `Merged) rest
       | _ -> ())
    (Ir.Fusion.chains plan);
  tbl

let process_mb charges id kind ~in_mb =
  match Hashtbl.find_opt charges id with
  | Some `Merged -> 0.
  | Some (`Chain kinds) -> in_mb *. fused_weight kinds
  | None -> in_mb *. op_weight kind

let scaled ~base ~nodes ~alpha =
  base *. Float.pow (float_of_int (max 1 nodes)) alpha
