(** Mergeability rules (paper §4.3.2), evaluated directly on a node
    subset of the workflow DAG.

    This mirrors the engines' admission checks ({!Engines.Admission})
    without materializing a job graph, so the partitioning algorithms
    can score thousands of candidate jobs cheaply: a set's {!shape} is
    computed once, then each backend's {!check} reads only counts.
    [check] also accepts a WHILE on MapReduce-style engines when the
    WHILE is the only operator in the job — the executor expands such
    jobs into per-iteration job chains (§4.2), which is how the paper
    runs PageRank on Hadoop. *)

type while_policy =
  | Native_iteration        (** WHILE runs inside one engine job *)
  | Expand_per_iteration    (** executor drives the loop as job chains *)
  | No_while

(** How [backend] would run a WHILE node. *)
val while_support : Engines.Backend.t -> while_policy

(** What admission reads of a candidate operator set, whatever the
    backend. *)
type shape

(** [shape kinds ~vertex_centric] — the shape of a set with these
    operator kinds. [vertex_centric] is forced only when the set is a
    lone WHILE, the one case a GAS-only engine admits, and says whether
    its body is vertex-centric. *)
val shape : Ir.Operator.kind list -> vertex_centric:bool Lazy.t -> shape

(** Why a backend refuses a set; {!reason} spells it out. *)
type refusal

(** The refusal's text, as explain and recovery print it. *)
val reason : Engines.Backend.t -> refusal -> string

(** [check backend shape] — can the set form one job on [backend]?
    Checks paradigm expressivity; connectivity and convexity are the
    partitioner's concern. *)
val check : Engines.Backend.t -> shape -> (unit, refusal) result

(** [check_bool backend g ids] — {!check} for the operator nodes [ids]
    of [g]. *)
val check_bool : Engines.Backend.t -> Ir.Dag.t -> int list -> bool
