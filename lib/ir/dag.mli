(** Operations over IR graphs ({!Operator.graph}).

    Graph invariants (checked by {!validate}, established by
    {!Builder}): node ids are unique and strictly increasing in
    [nodes]; every edge points from a lower id to a higher id, so the
    graph is acyclic by construction and [nodes] is already one valid
    topological order.

    One relation, one name: jobs pass intermediates through HDFS by
    output name, so no two nodes of a graph share one. A WHILE body is
    a scope of its own. Two INPUTs of one relation share its name, and
    a node may take the name of an INPUT whose every other reader is
    its ancestor, an in-place update: k-means' WHILE result replaces
    its [centroids] input, so a second run on the same HDFS starts
    from the first run's centroids. {!Builder} establishes the rule:
    when a frontend binds a name twice, only the final binding keeps
    it, and a body's definitions all get names of their own, its
    carried pairs saying which replaces which INPUT.

    A WHILE node takes as many inputs as its body has INPUT nodes and
    carries at least one pair: each pair's first relation is a body
    INPUT and its second a body output, and the condition names a
    pair's INPUT. *)

type t = Operator.graph

exception Invalid of string

(** Full structural validation, names included; raises {!Invalid}
    with the first problem found. Recurses into WHILE bodies. *)
val validate : t -> unit

(** [replaces_input g n]: every node of [g] that reads an INPUT of
    relation [n.output], other than [n], is an ancestor of [n], so [n]
    may take that name as an in-place update. *)
val replaces_input : t -> Operator.node -> bool

val node : t -> int -> Operator.node

val node_opt : t -> int -> Operator.node option

(** Number of operators, counting WHILE bodies recursively but not
    INPUT nodes (matches how the paper counts workflow operators). *)
val operator_count : t -> int

(** Nodes with no consumers within the graph. *)
val sinks : t -> Operator.node list

(** INPUT nodes. *)
val sources : t -> Operator.node list

(** Ids of the nodes consuming the given node's output. *)
val consumers : t -> int -> int list

(** [topological_order g] is the node list in dependency order. The
    depth-first linearization used by the dynamic partitioning heuristic
    (paper §5.1.2, Figure 6); ties broken by id. *)
val topological_order : t -> Operator.node list

(** All distinct topological linearizations, capped at [limit] — used by
    the §8 multi-order variant of the DP heuristic. *)
val topological_orders : ?limit:int -> t -> Operator.node list list

(** [is_connected g ids] — are the [ids] weakly connected (treating
    edges as undirected)? Jobs must be connected sub-DAGs. *)
val is_connected : t -> int list -> bool

(** [no_external_path g ids] — no path that leaves the set and re-enters
    it (such a partition would deadlock: the job needs its own output). *)
val convex : t -> int list -> bool

(** Relation names a node subset reads from outside itself (including
    INPUT relations). *)
val external_inputs : t -> int list -> string list

(** Nodes within the subset whose output is consumed outside of it or is
    a workflow output. *)
val external_outputs : t -> int list -> Operator.node list

(** Relation names produced by the graph's output nodes. *)
val output_relations : t -> string list

val input_relations : t -> string list

val pp : Format.formatter -> t -> unit

(** Graphviz rendering of the DAG (WHILE bodies become clusters);
    useful with the CLI's [--dot] flag. *)
val to_dot : ?name:string -> t -> string

(** Stable structural hash ("fnv1a:<16 hex>") over operator
    descriptions, edges, output relations and carried pairs,
    recursing into WHILE bodies. Node ids never enter the hash, so the
    result is independent of operator insertion order: two graphs built
    in different orders but with the same structure hash equal, while
    semantically different graphs (different operators, edges, outputs,
    or a duplicated vs shared subtree) hash differently. Keys run-ledger
    records and the serving layer's plan cache to workflow structure:
    same DAG → same hash across processes.

    Memoized per DAG value (physical identity — UDF closures make
    structural equality unusable), so repeated calls on the same graph
    are O(1); the [ir.canonical_hash.computed] counter in
    {!Obs.Metrics.default} counts actual computations. Because the memo
    key is physical, rebuilding a graph (the only way to "mutate" a
    node — see [Rebuild]) yields a fresh value whose entry is computed
    from scratch, so child-dependent parent hashes are never stale. *)
val canonical_hash : t -> string

(** [node_hash g id] — the subtree hash ("fnv1a:<16 hex>") of one
    node: a bottom-up fold over the node's operator description, output
    relation and its inputs' subtree hashes, so it identifies the
    node's **entire input cone**. Two nodes (in the same or different
    graphs) with equal subtree hashes compute the same relation from
    the same-named inputs, modulo 64-bit collisions — consumers that
    act on a match must keep their byte-identity gates. Shares the
    {!canonical_hash} memo entry. Raises {!Invalid} on unknown ids. *)
val node_hash : t -> int -> string

(** [cone g id] — ids of the node's input cone ([id] plus all
    transitive ancestors), in ascending id order (a topological
    order). The cone is always convex. *)
val cone : t -> int -> int list

(** [sharable ?barrier g id] — is [id] a sound subplan cut point?
    True when the node is not an INPUT, not a workflow output, has at
    least one consumer, its cone contains no WHILE/UDF/BLACK_BOX
    operator and reads no carried INPUT (a body's carried relations are
    rebound every iteration),
    and [barrier id] is false for it. [barrier] (default: none) lets
    callers exclude additional nodes, e.g. fusion-chain interiors
    whose tables fusion promises never to materialize. *)
val sharable : ?barrier:(int -> bool) -> t -> int -> bool

(** [shared_prefixes a b] — the maximal shared prefixes of two DAGs:
    pairs [(id_a, id_b, hash)] of {!sharable} nodes with equal subtree
    hashes (hence equal input cones), restricted to the matched
    frontier — a matched node whose consumer also matches is subsumed
    by the deeper match and not reported. [barrier_a]/[barrier_b]
    exclude nodes per graph (e.g. each graph's fusion interiors).
    Deterministic: results are in ascending [id_a] order and duplicate
    subtrees in [b] resolve to the smallest matching id. *)
val shared_prefixes :
  ?barrier_a:(int -> bool) ->
  ?barrier_b:(int -> bool) ->
  t -> t -> (int * int * string) list
