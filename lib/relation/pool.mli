(** Two names the repository benchmark ([perfbench/bench.ml]) calls.

    Every relational kernel runs serially, so there is no domain pool
    behind them: {!with_jobs} only runs its function and {!stats}
    counts nothing. Nothing outside [perfbench/] may call them; they
    go at the next change to that benchmark. *)

type stats = {
  batches : int;  (** always 0 *)
  tasks : int;    (** always 0 *)
}

(** [with_jobs n f] is [f ()]; [n] is ignored. *)
val with_jobs : int -> (unit -> 'a) -> 'a

(** Zero counts. *)
val stats : unit -> stats
