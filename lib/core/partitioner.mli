(** DAG partitioning and back-end selection (paper §5).

    Partitioning the IR DAG into jobs is an instance of k-way graph
    partitioning (NP-hard), for all k up to the operator count. Two
    algorithms are provided, behind {!partition} which switches on DAG
    size like the paper's prototype:

    - {!exhaustive}: explores every partition of the operators into
      connected, convex sets, scoring each set with the cheapest
      feasible back-end. Exponential; the paper uses it up to ~13–18
      operators (§6.6).
    - {!dynamic}: the dynamic-programming heuristic of §5.1.2 —
      topologically linearize, then optimally split the linear order
      into contiguous segments. Linear in practice, but it can miss
      merges whose operators are not adjacent in the chosen order
      (§8, Figure 16); {!dynamic_multi_order} retries over several
      linearizations, the fix the paper suggests.

    Job sets are scored with the cost function ({!Cost.price}, each set
    read once by {!Cost.job} however many backends price it), so
    automatic back-end mapping (§5.2) falls out: pass every available
    backend in [backends] and each job independently picks its
    cheapest engine. Restricting [backends] to a singleton forces a
    manual mapping. Every search's [partition] span carries
    [sets_scored] and [volumes_priced], the sets whose volumes it
    computed (at most once each). *)

type plan = {
  jobs : (Engines.Backend.t * int list) list;
      (** node-id sets with their chosen engines, in execution order *)
  cost_s : float;  (** estimated workflow cost under the cost model *)
}

val pp_plan : Format.formatter -> plan -> unit

(** All return [None] when some operator fits no backend at all. *)

val exhaustive :
  profile:Profile.t -> est:Estimator.t ->
  backends:Engines.Backend.t list -> Ir.Dag.t -> plan option

(** This reproduction's extension: the same search with memoization of
    sub-partition results, turning the paper's exponential blow-up into
    something tractable on chain-shaped DAGs (an ablation reported next
    to Figure 13). *)
val exhaustive_memoized :
  profile:Profile.t -> est:Estimator.t ->
  backends:Engines.Backend.t list -> Ir.Dag.t -> plan option

val dynamic :
  profile:Profile.t -> est:Estimator.t ->
  backends:Engines.Backend.t list -> Ir.Dag.t -> plan option

val dynamic_multi_order :
  ?orders:int -> profile:Profile.t -> est:Estimator.t ->
  backends:Engines.Backend.t list -> Ir.Dag.t -> plan option

(** One job per operator — the merging-disabled ablation of Figure 12. *)
val no_merging :
  profile:Profile.t -> est:Estimator.t ->
  backends:Engines.Backend.t list -> Ir.Dag.t -> plan option

(** [partition] dispatches to the exhaustive optimum (via
    {!exhaustive_memoized}, which returns the same plans as the paper's
    plain enumeration) for DAGs of at most [threshold] operators
    (default 13, after Figure 13) and to {!dynamic} beyond. *)
val partition :
  ?threshold:int -> profile:Profile.t -> est:Estimator.t ->
  backends:Engines.Backend.t list -> Ir.Dag.t -> plan option
