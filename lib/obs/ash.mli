(** Live statement activity and the Active Session History.

    The activity registry holds one {!type:slot} per in-flight
    statement (qid, fingerprint, current operator, monotonically
    advancing row/batch counters, current wait state); the ASH ring is
    a bounded buffer of {!type:sample} rows fed both by cadence
    snapshots of the registry (each live session samples as its wait
    class, or [cpu.exec] when running) and by one event row per
    completed wait interval, so short waits a 100 ms cadence would
    miss still appear.  [sys.ash] and [sys.progress] materialize from
    {!snapshot} and {!progress}.

    {!set_enabled} disables registration, sampling and ring pushes;
    the {!Wait} class counters stay on. *)

type slot
(** A registered session's activity record.  Obtained from
    {!register}; when the subsystem is disabled a shared inert slot is
    returned and every operation on it is a no-op, so callers never
    branch. *)

(** One ASH row. *)
type sample = {
  a_t_s : float;  (** wall-clock seconds *)
  a_qid : string;
  a_fingerprint : string;
  a_class : Wait.class_;
  a_detail : string;  (** lock name, WAL file, operator, … *)
  a_wait_ms : float;  (** true duration for events, 0 for samples *)
  a_kind : string;  (** ["sample"] (cadence) or ["event"] (completed wait) *)
}

(** One [sys.progress] row: a live statement's advancement. *)
type progress = {
  p_qid : string;
  p_fingerprint : string;
  p_lang : string;
  p_text : string;
  p_operator : string;  (** operator that last started producing *)
  p_chunks : int;
      (** progress batches out of the plan root: the executor advances
          once per 256 root elements and once for the remainder *)
  p_rows : int;
  p_est_rows : float;  (** planner estimate for the root; 0 = none *)
  p_pct : float;  (** rows vs. estimate, clamped to 100 *)
  p_elapsed_ms : float;
  p_wait : string;  (** current wait class name, or ["cpu.exec"] *)
}

val enabled : unit -> bool
(** The subsystem switch; starts true. *)

val set_enabled : bool -> unit

(** {1 Session lifecycle} *)

val register : ?lang:string -> ?text:string -> qid:string -> unit -> slot
(** Enter the statement into the registry.  Pair with {!finish}. *)

val set_statement : slot -> ?lang:string -> string -> unit
(** (Re)stamp text + fingerprint once the statement source is known. *)

val set_estimate : slot -> float -> unit
(** Planner cardinality estimate for the plan root. *)

val set_operator : slot -> string -> unit
(** Hot path (once per operator run, at its first element): operator
    currently producing. *)

val advance : slot -> rows:int -> unit
(** Hot path (per batch of root elements): one more batch of [rows]
    rows. *)

val set_wait : slot -> (Wait.class_ * string) option -> unit
(** Enter ([Some (class, detail)]) or leave ([None]) a wait. *)

val current_wait : slot -> (Wait.class_ * string) option

val finish : slot -> unit
(** Remove from the registry; notes the statement's wall clock on the
    [cpu.exec] counter.  Idempotent — only the removing call counts. *)

val live : slot -> bool
(** False only for the disabled-mode inert slot. *)

val live_count : unit -> int

(** {1 Wait events} *)

val event :
  ?qid:string ->
  ?fingerprint:string ->
  Wait.class_ ->
  detail:string ->
  dur_us:float ->
  unit
(** A completed wait interval: always feeds {!Wait.note}; additionally
    pushes one ASH event row when enabled. *)

val slot_event : slot -> Wait.class_ -> detail:string -> dur_us:float -> unit
(** {!event} attributed to a registered session. *)

val track :
  ?qid:string ->
  ?fingerprint:string ->
  Wait.class_ ->
  detail:string ->
  (unit -> 'a) ->
  'a
(** Time [f] and emit the interval as an {!event} (also on raise). *)

(** {1 Sampling and reading} *)

val sample_now : unit -> int
(** Snapshot every live session into the ring (its wait class, or
    [cpu.exec] on its current operator); returns rows pushed.  The
    {!Sampler} cadence calls this through {!probe}; benches and tests
    call it directly for deterministic sampling. *)

val probe : unit -> (string * float) list
(** Sampler probe: runs {!sample_now} and reports [ash.samples]
    (lifetime rows pushed) and [ash.live]. *)

val snapshot : unit -> sample list
(** Ring contents, oldest first. *)

val progress : unit -> progress list
(** Live sessions sorted by qid. *)

val pushed_total : unit -> int
val capacity : unit -> int
val set_capacity : int -> unit
val clear : unit -> unit
(** Empty the ring and zero {!pushed_total} (tests/benches). *)

(** {1 Ambient slot} *)

val with_slot : slot -> (unit -> 'a) -> 'a
(** Make [slot] the ambient current statement for the duration of [f]
    so the executor can find it without plumbing.  Inert
    slots are not installed (the executor's fast path stays
    [current () = None]). *)

val current : unit -> slot option

(** {1 Rendering} *)

val render_ash : ?limit:int -> unit -> string
(** Fixed-width table of the newest [limit] (default 256) ring rows,
    followed by the per-class counter totals — the [/ashz] view. *)

val render_progress : unit -> string
(** Fixed-width table of {!progress} — the [/progressz] view. *)
