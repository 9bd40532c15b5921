type report = {
  rewrites_applied : int;
  optimized : Ir.Dag.t;
  estimates : (int * string * float * bool) list;
  plan : Partitioner.plan option;
  job_costs : (Engines.Backend.t * int list * float) list;
  alternatives : (Engines.Backend.t * Cost.verdict) list;
  calibration : (string * float) list;
}

let explain ?(backends = Engines.Backend.all) ~profile ~history ~workflow
    ~hdfs graph =
  Obs.Trace.with_span
    ~attrs:[ ("workflow", Obs.Trace.String workflow) ]
    "explain"
  @@ fun () ->
  let catalog r = Relation.Table.schema (Engines.Hdfs.table hdfs r) in
  let optimized, rewrites_applied =
    Optimizer.optimize_counted ~catalog graph
  in
  let est =
    Estimator.build
      ~input_mb:(fun r ->
        if Engines.Hdfs.mem hdfs r then Some (Engines.Hdfs.modeled_mb hdfs r)
        else None)
      ~history ~workflow optimized
  in
  let estimates =
    List.map
      (fun (n : Ir.Operator.node) ->
         ( n.id,
           Ir.Operator.describe n.kind,
           Estimator.output_mb est n.id,
           Estimator.from_history est n.id ))
      optimized.Ir.Operator.nodes
  in
  let plan = Partitioner.partition ~profile ~est ~backends optimized in
  let job_costs =
    match plan with
    | None -> []
    | Some p ->
      List.map
        (fun (backend, ids) ->
           ( backend, ids,
             Cost.seconds
               (Cost.job_cost ~profile ~est backend ids) ))
        p.Partitioner.jobs
  in
  let alternatives =
    List.map
      (fun backend ->
         let verdict =
           match
             Partitioner.partition ~profile ~est ~backends:[ backend ]
               optimized
           with
           | Some p -> Cost.Finite p.Partitioner.cost_s
           | None -> Cost.Infeasible "no single-backend plan"
         in
         (backend, verdict))
      backends
  in
  { rewrites_applied; optimized; estimates; plan; job_costs; alternatives;
    calibration = Profile.calibration profile }

let pp ppf r =
  Format.fprintf ppf "optimized IR (%d rewrite%s applied):@."
    r.rewrites_applied
    (if r.rewrites_applied = 1 then "" else "s");
  Format.fprintf ppf "%a@." Ir.Dag.pp r.optimized;
  Format.fprintf ppf "estimated data volumes:@.";
  List.iter
    (fun (id, descr, mb, historical) ->
       Format.fprintf ppf "  [%d] %-45s ~%8.1f MB%s@." id
         (if String.length descr > 45 then String.sub descr 0 45 else descr)
         mb
         (if historical then "  (history)" else ""))
    r.estimates;
  (match r.calibration with
   | [] -> ()
   | factors ->
     Format.fprintf ppf "@.calibration factors (ledger-fitted):@.";
     List.iter
       (fun (backend, f) ->
          Format.fprintf ppf "  %-12s x%.3f@." backend f)
       factors);
  (match r.plan with
   | None -> Format.fprintf ppf "no feasible plan@."
   | Some p ->
     Format.fprintf ppf "@.chosen mapping (estimated %.1fs):@."
       p.Partitioner.cost_s;
     List.iteri
       (fun i (backend, ids, cost) ->
          (* cost already includes the engine's calibration factor;
             show the raw model estimate next to it when they differ *)
          let factor =
            Option.value ~default:1.0
              (List.assoc_opt (Engines.Backend.name backend) r.calibration)
          in
          Format.fprintf ppf "  job %d on %-10s ops [%s]  ~%.1fs%s@." i
            (Engines.Backend.name backend)
            (String.concat "; " (List.map string_of_int ids))
            cost
            (if Float.abs (factor -. 1.0) > 1e-9 then
               Printf.sprintf " (raw %.1fs, x%.3f)" (cost /. factor) factor
             else ""))
       r.job_costs);
  Format.fprintf ppf "@.single-back-end alternatives:@.";
  List.iter
    (fun (backend, verdict) ->
       match verdict with
       | Cost.Finite s ->
         Format.fprintf ppf "  %-12s ~%.1fs@." (Engines.Backend.name backend) s
       | Cost.Infeasible reason ->
         Format.fprintf ppf "  %-12s infeasible (%s)@."
           (Engines.Backend.name backend) reason)
    r.alternatives


let backend_color = function
  | Engines.Backend.Hadoop -> "#f4e04d"
  | Engines.Backend.Spark -> "#f28e2b"
  | Engines.Backend.Naiad -> "#76b7b2"
  | Engines.Backend.Power_graph -> "#59a14f"
  | Engines.Backend.Graph_chi -> "#b6992d"
  | Engines.Backend.Metis -> "#d37295"
  | Engines.Backend.Serial_c -> "#bab0ac"
  | Engines.Backend.Giraph -> "#9d7660"
  | Engines.Backend.X_stream -> "#a0cbe8"

let plan_dot (g : Ir.Dag.t) (plan : Partitioner.plan) =
  let assignment = Hashtbl.create 16 in
  List.iteri
    (fun job_index (backend, ids) ->
       List.iter
         (fun id -> Hashtbl.replace assignment id (job_index, backend))
         ids)
    plan.Partitioner.jobs;
  let buf = Buffer.create 512 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  line "digraph plan {";
  line "  rankdir=TB;";
  List.iter
    (fun (n : Ir.Operator.node) ->
       let label =
         String.concat "\\n"
           [ Ir.Operator.describe n.kind;
             (match Hashtbl.find_opt assignment n.id with
              | Some (j, backend) ->
                Printf.sprintf "job %d: %s" j (Engines.Backend.name backend)
              | None -> "input") ]
       in
       let fill =
         match Hashtbl.find_opt assignment n.id with
         | Some (_, backend) -> backend_color backend
         | None -> "#ffffff"
       in
       line "  n%d [label=\"%s\" style=filled fillcolor=\"%s\"%s];" n.id
         label fill
         (match n.kind with
          | Ir.Operator.Input _ -> " shape=box"
          | Ir.Operator.While _ -> " shape=diamond"
          | _ -> "");
       List.iter (fun i -> line "  n%d -> n%d;" i n.id) n.inputs)
    g.Ir.Operator.nodes;
  Buffer.contents buf ^ "}\n"
