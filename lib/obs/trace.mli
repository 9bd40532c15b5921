(** Span-based tracing of the Musketeer pipeline.

    A {e span} is a named, timed region of execution with key/value
    attributes; spans nest, giving a tree per workflow run (frontend
    parse, IR build, optimizer passes, partitioning, code generation,
    one span per dispatched engine job, ...).

    Tracing is off by default and costs one branch per [with_span] when
    disabled, so the instrumentation can stay in hot paths (the
    partitioner micro-benchmarks of Figure 13 run with it compiled in).
    Enable it by installing a collector — normally via {!collecting}:

    {[
      let trace, result = Obs.Trace.collecting (fun () -> run_pipeline ()) in
      print_string (Obs.Export.chrome_trace trace)
    ]}

    Timestamps come from {!Clock} (monotonic, nanoseconds). *)

type value =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string

type span = {
  id : int;                  (** unique within the trace, in start order *)
  parent : int option;       (** enclosing span, [None] for roots *)
  name : string;
  start_ns : int64;          (** relative to the trace's first span *)
  mutable dur_ns : int64;
  mutable attrs : (string * value) list;  (** in attachment order *)
}

type t

val create : unit -> t

(** Whether a collector is installed (spans are being recorded). *)
val enabled : unit -> bool

(** [collecting f] runs [f] with a fresh collector installed and
    returns it together with [f]'s result. The previous collector is
    restored afterwards, also on exceptions. *)
val collecting : (unit -> 'a) -> t * 'a

(** [with_span ~attrs name f] runs [f] inside a new span. The span is
    closed when [f] returns or raises; with no collector installed this
    is just [f ()]. *)
val with_span : ?attrs:(string * value) list -> string -> (unit -> 'a) -> 'a

(** Attach an attribute to the innermost open span (no-op outside any
    span or with tracing disabled). *)
val add_attr : string -> value -> unit

(** Completed and still-open spans, in start order. *)
val spans : t -> span list

val span_count : t -> int

(** Spans whose name equals [name], in start order. *)
val find : t -> name:string -> span list

(** Spans whose name starts with [prefix], in start order. *)
val find_prefix : t -> prefix:string -> span list

(** [time f] — [f]'s result and its duration in seconds on the shared
    observability clock. The replacement for ad-hoc
    [Unix.gettimeofday] deltas in experiments; independent of whether
    tracing is enabled. *)
val time : (unit -> 'a) -> 'a * float

val pp_value : Format.formatter -> value -> unit
