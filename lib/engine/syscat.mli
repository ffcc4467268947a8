(** The system catalog: reserved [sys.*] names served as ordinary bag
    relations, materialized on attach from the live telemetry
    registries.

    {ul
    {- [sys.statements] — {!Mxra_obs.Stmt_stats}: one row per statement
       fingerprint (calls, rows, tuples, WAL bytes, lock-wait,
       total/min/max/p50/p99 wall ms, last query id).}
    {- [sys.operators] — {!Mxra_obs.Op_stats}: cumulative per physical
       operator kind.}
    {- [sys.relations] — the database catalog itself: name, arity,
       cardinality, support size, temporary flag (sys.* rows excluded).}
    {- [sys.indexes] — secondary-index definitions with live structure
       statistics: name, relation, columns, kind, distinct keys, posted
       entries ({!Mxra_ext.Index}).}
    {- [sys.locks] — counter/value pairs from the probe registered
       under ["sys.locks"] (the host wires
       [Mxra_concurrency.Scheduler.telemetry]); empty otherwise.}
    {- [sys.pool] — counter/value pairs from the probe registered under
       ["sys.pool"] ([Mxra_ext.Pool.telemetry] by default).}
    {- [sys.series] — latest point per series of the registered
       {!Mxra_obs.Timeseries} store; empty when none registered.}
    {- [sys.ash] — the Active Session History ring
       ({!Mxra_obs.Ash.snapshot}): one row per sample or wait event
       (timestamp, qid, fingerprint, wait class, detail, wait ms,
       kind); identical samples fold into one tuple with
       multiplicity.}
    {- [sys.progress] — live statements from the activity registry
       ({!Mxra_obs.Ash.progress}): current operator, progress
       batches ([chunks]) and rows produced at the plan root, planner
       estimate and percent,
       elapsed ms, current wait class.}}

    [attach] binds each as a {e temporary} relation
    ({!Mxra_relational.Database.assign_temporary}), so the catalog is a
    per-query snapshot: invisible to durability, excluded from
    persistent schemas, and indistinguishable from any other relation
    downstream of name resolution. *)

open Mxra_relational
open Mxra_core

exception Reserved of string
(** Raised by {!check_not_reserved}: [sys.*] names cannot be created
    or assigned. *)

val is_sys_name : string -> bool
(** True iff the name starts with ["sys."]. *)

val check_not_reserved : string -> unit
(** @raise Reserved when the name is a [sys.*] name. *)

val names : unit -> string list
(** The reserved catalog names. *)

val schema : string -> Schema.t option
(** Schema of a reserved name; [None] for anything else (including
    unknown [sys.*] names). *)

val materialize : Database.t -> string -> Relation.t option
(** Snapshot one catalog relation right now.  [db] feeds
    [sys.relations]; the registries feed the rest. *)

val mentions : Mxra_core.Expr.t -> bool
(** Does the expression scan any [sys.*]-prefixed relation name? *)

val attach : Database.t -> Database.t
(** Materialize every catalog relation and bind each as a temporary.
    A persistent relation already holding a [sys.*] name is never
    shadowed. *)

val attach_for : Database.t -> Mxra_core.Expr.t -> Database.t
(** [attach] when {!mentions}, [db] unchanged otherwise — so queries
    that never touch the catalog pay one name-list walk.  Unknown
    [sys.*] names stay unbound and scan to the ordinary
    [Database.Unknown_relation]. *)

val env : Database.t -> Typecheck.env
(** [Typecheck.env_of_database db] extended with the catalog schemas —
    what the SQL translator needs to resolve [FROM sys.statements]
    before attachment happens. *)

val set_probe : string -> (unit -> (string * float) list) -> unit
(** Register the counter source for ["sys.locks"] / ["sys.pool"].  A
    probe that raises yields an empty relation — telemetry never takes
    a query down. *)

val set_series_store : Mxra_obs.Timeseries.t option -> unit
(** Register the live timeseries store behind [sys.series]. *)
