(** Automatic back-end mapping (paper §5.2, §6.7).

    Musketeer's automatic choice is the cost-based partitioner run over
    all back-ends ({!Partitioner.partition}); this module adds the
    decision-tree baseline Figure 14 compares against. The tree encodes
    fixed expert rules ("small data → single machine", "graph idiom →
    specialized engine", …); its inflexible thresholds and blindness to
    operator merging and shared scans yield many poor choices, which is
    the paper's point. *)

(** Decision-tree choice for the whole workflow, from workflow shape
    and input size alone. *)
val decision_tree :
  cluster:Engines.Cluster.t -> input_mb:float -> Ir.Dag.t ->
  Engines.Backend.t
