(** Deterministic fault injection into engine runs.

    An injector is created from a {!Faults.fault_plan} and passed to
    the runs it should strike ([?inject] on the executor and on
    {!Engine.t.run}); every run given it draws from it once, just
    after pricing and before outputs materialize — so a faulted job
    never leaves partial state in HDFS. The plan's fault list is a finite
    budget consumed front-to-back: with the same seed and the same
    dispatch order, the same jobs fault in the same way, which is what
    makes recovery testable ([--inject ... --seed 42] reproduces). *)

type t

val create : Faults.fault_plan -> t

(** Straggler faults fired so far: the executor compares this count
    before and after a job to tell an injected straggler. *)
val stragglers : t -> int

(** [draw t] — called by the engine skeleton once per run: advances
    the RNG and returns the next fault with the plan's probability
    ([None] when the coin fails or the budget is exhausted). *)
val draw : t -> Faults.fault option
