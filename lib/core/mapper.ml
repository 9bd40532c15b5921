(* graph idiom: small graph -> GraphChi, moderate cluster -> PowerGraph,
   large cluster -> Naiad; otherwise iterative -> Spark, then by input
   size: tiny -> serial C, small -> Metis, large batch -> Hadoop *)
let decision_tree ~(cluster : Engines.Cluster.t) ~input_mb (g : Ir.Dag.t) =
  if Idiom.detect_graph_workload g <> None then
    if input_mb < 2048. then Engines.Backend.Graph_chi
    else if cluster.nodes <= 16 then Engines.Backend.Power_graph
    else Engines.Backend.Naiad
  else if Engines.Exec_helper.has_while g then Engines.Backend.Spark
  else if input_mb < 96. then Engines.Backend.Serial_c
  else if input_mb < 1024. then Engines.Backend.Metis
  else Engines.Backend.Hadoop
