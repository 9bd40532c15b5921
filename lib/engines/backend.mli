(** The seven back-end execution engines Musketeer targets (paper §1):
    Hadoop MapReduce, Spark, Naiad, PowerGraph, GraphChi, Metis and
    simple serial C code — plus two engines this reproduction adds to
    demonstrate the paper's extensibility claim (§3): a Giraph-style
    Pregel engine and an X-Stream-style edge-centric engine (both rows
    of Table 3 the original prototype did not support). *)

type t =
  | Hadoop
  | Spark
  | Naiad
  | Power_graph
  | Graph_chi
  | Metis
  | Serial_c
  | Giraph    (** extension: Pregel-style vertex-centric cluster engine *)
  | X_stream  (** extension: edge-centric single-machine engine *)

(** The paper's seven engines — what automatic mapping explores by
    default, keeping the reproduced figures faithful. *)
val all : t list

(** All nine engines, including the two extensions. *)
val extended : t list

val name : t -> string

val of_string : string -> t option

val compare : t -> t -> int

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** Engines restricted to the vertex-centric / GAS computation paradigm
    — they can only run graph-idiom jobs (§4.3.1). *)
val gas_only : t -> bool

(** Engines that can run an arbitrary operator sub-DAG (incl. WHILE) as
    one job; MapReduce-style engines are limited to one shuffle per job
    (§4.3.2). *)
val general_purpose : t -> bool
