(** Lookup from {!Backend.t} to its engine simulator. *)

val find : Backend.t -> Engine.t

val all : Engine.t list

(** [run backend ~cluster ~hdfs job] — convenience dispatch. *)
val run :
  ?inject:Injector.t -> ?share:Share.t -> Backend.t -> cluster:Cluster.t ->
  hdfs:Hdfs.t -> Job.t -> (Report.t, Report.error) result

(** [price backend ~cluster job exec] — {!Engine.t.price} of [backend]:
    the report of [job] for an execution already done. *)
val price :
  Backend.t -> cluster:Cluster.t -> Job.t -> Exec_helper.result ->
  (Report.t, Report.error) result

(** [supports backend graph] — can one job of [backend] express it? *)
val supports : Backend.t -> Ir.Operator.graph -> (unit, string) result
