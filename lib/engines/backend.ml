type t =
  | Hadoop
  | Spark
  | Naiad
  | Power_graph
  | Graph_chi
  | Metis
  | Serial_c
  | Giraph
  | X_stream

let all = [ Hadoop; Spark; Naiad; Power_graph; Graph_chi; Metis; Serial_c ]

let extended = all @ [ Giraph; X_stream ]

let name = function
  | Hadoop -> "Hadoop"
  | Spark -> "Spark"
  | Naiad -> "Naiad"
  | Power_graph -> "PowerGraph"
  | Graph_chi -> "GraphChi"
  | Metis -> "Metis"
  | Serial_c -> "SerialC"
  | Giraph -> "Giraph"
  | X_stream -> "X-Stream"

let of_string s =
  match String.lowercase_ascii s with
  | "hadoop" -> Some Hadoop
  | "spark" -> Some Spark
  | "naiad" -> Some Naiad
  | "powergraph" | "power_graph" -> Some Power_graph
  | "graphchi" | "graph_chi" -> Some Graph_chi
  | "metis" -> Some Metis
  | "serialc" | "serial_c" | "c" -> Some Serial_c
  | "giraph" | "pregel" -> Some Giraph
  | "xstream" | "x-stream" | "x_stream" -> Some X_stream
  | _ -> None

let compare = Stdlib.compare

let equal a b = compare a b = 0

let pp ppf t = Format.pp_print_string ppf (name t)

let gas_only = function
  | Power_graph | Graph_chi | Giraph | X_stream -> true
  | Hadoop | Spark | Naiad | Metis | Serial_c -> false

let general_purpose = function
  | Spark | Naiad | Serial_c -> true
  | Hadoop | Metis | Power_graph | Graph_chi | Giraph | X_stream -> false
