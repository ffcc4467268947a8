(** Physical plan execution.

    Operators exchange {e counted tuples} [(tuple, multiplicity)]: a
    relation holding one tuple a million times flows as a single element,
    which is the executable form of the paper's representation of
    multi-sets as [(x, E(x))] pairs.  Execution is push-based: each
    operator hands every counted tuple it produces straight to its
    consumer — scans iterate the bag, σ and π wrap the consumer, joins
    and products emit from their probe loops — while blocking operators
    (hash join build, aggregation, distinct, difference, intersection)
    fill their hash tables from their inputs and then emit.  Nothing is
    buffered between operators, so equal tuples may arrive as several
    elements; {!run} merges them into the result bag.

    Correctness contract: for every plan [p] and database [db],
    [run db p] equals [Eval.eval db (Physical.to_logical p)] — checked
    property-style by the test suite, differentially across fragment
    counts. *)

open Mxra_relational
open Mxra_core

(** {1 Execution} *)

val run : Database.t -> Physical.t -> Relation.t
(** Execute a plan to a materialised relation.
    @raise Database.Unknown_relation on a scan of an absent name.
    @raise Typecheck.Type_error if the plan's logical image is ill-typed.
    @raise Scalar.Eval_error / [Aggregate.Undefined] on dynamic failure. *)

val run_expr : Database.t -> Expr.t -> Relation.t
(** Plan (with {!Planner.plan}) and execute a logical expression — the
    engine's one-call entry point. *)

val iter : Database.t -> Physical.t -> (Tuple.t * int -> unit) -> unit
(** [iter db p f] runs the plan and hands [f] every counted tuple the
    root emits, without final materialisation; multiplicities of equal
    tuples may be split across several elements.  Live progress
    ({!Mxra_obs.Ash.with_slot}) advances as for {!run}, so [f] sees its
    own statement's [sys.progress] row move. *)

val tuples_moved : Database.t -> Physical.t -> int
(** Execute while counting every counted-tuple element that crosses an
    operator boundary — the measured counterpart of {!Cost.cost}'s
    estimate. *)

val cells_moved : Database.t -> Physical.t -> int
(** Like {!tuples_moved} but weighted by tuple arity: the data {e
    volume} crossing operator boundaries.  This is the quantity
    Example 3.2's early projection reduces — narrower intermediates —
    and what the intermediate-size experiment (E5) reports. *)

(** {1 Instrumented execution — EXPLAIN ANALYZE}

    Every physical operator records what it actually did: counted-tuple
    elements and tuples (with multiplicity) emitted, cells moved, wall
    time, and operator-specific gauges (hash-build sizes, group counts,
    materialised inner cardinalities, an Exchange's fragment count and
    largest fragment input as [parts] and [max-part]).  Because the engine runs on the
    paper's counted representation [(x, E(x))], the cardinality
    accounting is exact, not sampled.  Instrumentation must not perturb
    bag semantics: [run_instrumented db p] returns the same relation as
    [run db p] — checked property-style by the test suite. *)

type op_metrics = {
  out_elems : int;  (** counted-tuple elements emitted *)
  out_rows : int;  (** tuples emitted, weighted by multiplicity *)
  out_cells : int;  (** elements weighted by tuple arity *)
  wall_ms : float;
      (** wall time of the operator's run, inclusive of its children (as
          in EXPLAIN ANALYZE's actual time) and exclusive of its
          consumers.  Timing every element's hand-off to the consumer
          would cost more than the work measured, so one hand-off in 64
          is timed and the consumers' share is scaled up from those
          samples: this figure is an estimate, the counts are exact. *)
  details : (string * int) list;  (** operator-specific gauges *)
}

type report = {
  node : Physical.t;
  estimated_rows : float;
      (** the optimizer's estimate ({!Cost.estimate_cardinality}) for
          this operator's logical image, from the database's statistics *)
  actual : op_metrics;
  q_error : float;  (** {!Cost.q_error} of estimated vs actual rows *)
  inputs : report list;
}

type analysis = {
  result : Relation.t;
  total_ms : float;
  root : report;
  totals : Metrics.t;
      (** plan-wide aggregates: [tuples-moved], [cells-moved],
          [rows-out], [operators], [wall] *)
}

val run_instrumented : Database.t -> Physical.t -> analysis
(** Execute with per-operator metrics.  Same result and same raising
    behaviour as {!run}; element/row/cell counts equal what
    {!tuples_moved} and {!cells_moved} count. *)

val explain_analyze : ?jobs:int -> Database.t -> Expr.t -> analysis
(** Plan (with {!Planner.plan}, forwarding [jobs]) and
    {!run_instrumented} — the engine's one-call EXPLAIN ANALYZE.
    Callers wanting the optimizer's plan should optimize the
    expression first. *)

val pp_analysis : Format.formatter -> analysis -> unit
(** The physical tree, each operator annotated with
    [(est=… act=… q=… time=…ms gauges…)], then a total line. *)

val analysis_to_string : analysis -> string

val pp_estimates : Database.t -> Format.formatter -> Physical.t -> unit
(** The physical tree annotated with estimated rows only — EXPLAIN
    without execution. *)

val explain : ?jobs:int -> Database.t -> Expr.t -> string
(** Plan (forwarding [jobs] to {!Planner.plan}) and render with
    {!pp_estimates}. *)
