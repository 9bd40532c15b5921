(** The shared performance model engine simulators charge time with.

    Engines compute a {!rates} record from the cluster and job (this is
    where their architectural differences live — per-job overhead,
    I/O parallelism, shuffle bandwidth, scaling exponents) and the
    executor-side helper computes {!volumes} from the data actually
    flowing through the job. Makespan is then a simple rate model:

    {v makespan = overhead + pull/in-rate + load/load-rate
                 + process/process-rate + comm/comm-rate + push/out-rate
                 + iterations * iteration-overhead v}

    This mirrors the structure of Musketeer's own cost function (paper
    §5.2, Table 1): the PULL/LOAD/PROCESS/PUSH rates the planner
    calibrates are exactly the rates the simulators run on. *)

type volumes = {
  input_mb : float;       (** pulled from HDFS *)
  output_mb : float;      (** pushed to HDFS *)
  load_mb : float;        (** data passing the engine's load phase *)
  process_mb : float;     (** weighted per-operator processing volume *)
  scan_extra_mb : float;  (** additional passes by unoptimized code *)
  comm_mb : float;        (** shuffled / messaged over the network *)
  iterations : int;
}

val zero_volumes : volumes

type rates = {
  overhead_s : float;       (** per-job fixed cost *)
  pull_mb_s : float;        (** aggregate HDFS ingest rate *)
  load_mb_s : float option; (** [None]: the engine has no load phase *)
  process_mb_s : float;     (** aggregate in-memory processing rate *)
  comm_mb_s : float;        (** aggregate shuffle bandwidth *)
  push_mb_s : float;        (** aggregate HDFS write rate *)
  iter_overhead_s : float;  (** per-iteration synchronization cost *)
}

(** [makespan rates volumes] — the breakdown and its total. *)
val makespan : rates -> volumes -> Report.breakdown * float

(** Process-volume charges under a fusion plan: merged operators
    (paper §5) make one pass, so the row-local members of a chain of
    the plan ({!Ir.Fusion.row_local}) that lie wholly [within] a job are
    charged once, to the first member at the most expensive member's
    per-byte weight (floor 1.0, a SELECT scan), and the others nothing.
    Every other node is charged its own weight relative to a SELECT scan
    (UDFs use their declared cost factor). The executor and the cost
    model both price with this rule. *)
type charges

(** [charges plan g ~within] — the rule for [plan]'s chains over [g]. *)
val charges :
  Ir.Fusion.plan -> Ir.Operator.graph -> within:(int -> bool) -> charges

(** [process_mb charges id kind ~in_mb] — node [id]'s process volume,
    given its modeled input. *)
val process_mb :
  charges -> int -> Ir.Operator.kind -> in_mb:float -> float

(** [scaled ~base ~nodes ~alpha] aggregate rate of [nodes] machines with
    parallel efficiency exponent [alpha] ([alpha]=1: perfect scaling). *)
val scaled : base:float -> nodes:int -> alpha:float -> float
