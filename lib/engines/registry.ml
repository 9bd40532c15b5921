let find = function
  | Backend.Hadoop -> Hadoop.engine
  | Backend.Spark -> Spark.engine
  | Backend.Naiad -> Naiad.engine
  | Backend.Power_graph -> Powergraph.engine
  | Backend.Graph_chi -> Graphchi.engine
  | Backend.Metis -> Metis.engine
  | Backend.Serial_c -> Serial_c.engine
  | Backend.Giraph -> Giraph.engine
  | Backend.X_stream -> X_stream.engine

let all = List.map find Backend.extended

let run ?inject ?share backend ~cluster ~hdfs job =
  (find backend).Engine.run ?inject ?share ~cluster ~hdfs job

let price backend ~cluster job exec =
  (find backend).Engine.price ~cluster job exec

let supports backend graph = (find backend).Engine.supports graph
