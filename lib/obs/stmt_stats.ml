(* Cumulative per-statement statistics, keyed by {!Fingerprint}.

   One process-wide mutex-guarded registry: the front-ends (bagdb, the
   REPL, the scheduler) call [record] once per executed statement with
   the raw text, wall time and row counts; the store and the scheduler
   attribute WAL bytes and lock-wait time by query id as they happen.
   Attribution arrives *before* [record] does — a statement's WAL
   records are appended while it runs, its lock waits accrue while it
   is blocked — so by-qid figures land in a pending side table and are
   drained into the entry when [record] finally names the qid.  After
   [record], the qid stays resolvable (bounded LRU) so late commit
   bytes still find their statement.

   Everything is behind [enabled]: when the registry is off
   ([set_enabled false]) every call
   returns after one atomic load — that no-op path is what bench E17
   holds against the enabled path under the 5% budget. *)

type row = {
  r_fingerprint : string;
  r_text : string;
  r_lang : string;
  r_calls : int;
  r_rows : int;
  r_tuples : int;
  r_wal_bytes : int;
  r_lock_wait_ms : float;
  r_conflicts : int;
  r_total_ms : float;
  r_min_ms : float;
  r_max_ms : float;
  r_p50_ms : float;
  r_p99_ms : float;
  r_last_qid : string;
}

type entry = {
  fp : string;
  text : string;
  mutable lang : string;
  mutable calls : int;
  mutable rows : int;
  mutable tuples : int;
  mutable wal_bytes : int;
  mutable lock_wait_ms : float;
  mutable conflicts : int;
  hist : Histogram.t;  (* wall ms: exact count/sum/min/max, p50/p99 *)
  mutable last_qid : string;
}

let enabled_flag = Atomic.make true

let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let entries : (string, entry) Hashtbl.t = Hashtbl.create 64

(* qid -> entry, bounded FIFO so a long-lived process cannot leak one
   binding per query ever executed. *)
let by_qid : (string, entry) Hashtbl.t = Hashtbl.create 64
let qid_order : string Queue.t = Queue.create ()
let max_qids = 4096

(* Attribution that arrived before its statement was recorded. *)
let pending_wal : (string, int) Hashtbl.t = Hashtbl.create 16
let pending_wait : (string, float) Hashtbl.t = Hashtbl.create 16
let pending_conflicts : (string, int) Hashtbl.t = Hashtbl.create 16
let max_pending = 4096

let bind_qid q e =
  if not (Hashtbl.mem by_qid q) then begin
    Queue.push q qid_order;
    if Queue.length qid_order > max_qids then
      Hashtbl.remove by_qid (Queue.pop qid_order)
  end;
  Hashtbl.replace by_qid q e

let record ?(lang = "xra") ?qid ?(rows = 0) ?(tuples = 0) ~wall_ms text =
  if enabled () then begin
    let fp = Fingerprint.fingerprint text in
    with_lock (fun () ->
        let e =
          match Hashtbl.find_opt entries fp with
          | Some e -> e
          | None ->
              let e =
                {
                  fp;
                  text = Fingerprint.normalize text;
                  lang;
                  calls = 0;
                  rows = 0;
                  tuples = 0;
                  wal_bytes = 0;
                  lock_wait_ms = 0.0;
                  conflicts = 0;
                  hist = Histogram.create ();
                  last_qid = "";
                }
              in
              Hashtbl.add entries fp e;
              e
        in
        e.calls <- e.calls + 1;
        e.rows <- e.rows + rows;
        e.tuples <- e.tuples + tuples;
        e.lang <- lang;
        Histogram.observe e.hist wall_ms;
        match qid with
        | None -> ()
        | Some q ->
            e.last_qid <- q;
            (match Hashtbl.find_opt pending_wal q with
            | Some b ->
                e.wal_bytes <- e.wal_bytes + b;
                Hashtbl.remove pending_wal q
            | None -> ());
            (match Hashtbl.find_opt pending_wait q with
            | Some w ->
                e.lock_wait_ms <- e.lock_wait_ms +. w;
                Hashtbl.remove pending_wait q
            | None -> ());
            (match Hashtbl.find_opt pending_conflicts q with
            | Some c ->
                e.conflicts <- e.conflicts + c;
                Hashtbl.remove pending_conflicts q
            | None -> ());
            bind_qid q e)
  end

let add_pending tbl q v add zero =
  if Hashtbl.length tbl >= max_pending then Hashtbl.reset tbl;
  let cur = Option.value (Hashtbl.find_opt tbl q) ~default:zero in
  Hashtbl.replace tbl q (add cur v)

let add_wal_bytes ~qid n =
  if enabled () && n > 0 then
    with_lock (fun () ->
        match Hashtbl.find_opt by_qid qid with
        | Some e -> e.wal_bytes <- e.wal_bytes + n
        | None -> add_pending pending_wal qid n ( + ) 0)

let add_lock_wait ~qid ms =
  if enabled () && ms > 0.0 then
    with_lock (fun () ->
        match Hashtbl.find_opt by_qid qid with
        | Some e -> e.lock_wait_ms <- e.lock_wait_ms +. ms
        | None -> add_pending pending_wait qid ms ( +. ) 0.0)

(* A snapshot-isolation first-committer-wins abort, attributed to the
   transaction's statements via its qid — the SI counterpart of
   lock-wait attribution (conflicts are where SI pays what 2PL pays in
   waits). *)
let add_conflict ~qid =
  if enabled () then
    with_lock (fun () ->
        match Hashtbl.find_opt by_qid qid with
        | Some e -> e.conflicts <- e.conflicts + 1
        | None -> add_pending pending_conflicts qid 1 ( + ) 0)

let clear () =
  with_lock (fun () ->
      Hashtbl.reset entries;
      Hashtbl.reset by_qid;
      Queue.clear qid_order;
      Hashtbl.reset pending_wal;
      Hashtbl.reset pending_wait;
      Hashtbl.reset pending_conflicts)

let cardinality () = with_lock (fun () -> Hashtbl.length entries)

let quantile_or_zero h p =
  let v = Histogram.quantile h p in
  if Float.is_nan v then 0.0 else v

let finite_or_zero v = if Float.is_finite v then v else 0.0

let row_of_entry e =
  {
    r_fingerprint = e.fp;
    r_text = e.text;
    r_lang = e.lang;
    r_calls = e.calls;
    r_rows = e.rows;
    r_tuples = e.tuples;
    r_wal_bytes = e.wal_bytes;
    r_lock_wait_ms = e.lock_wait_ms;
    r_conflicts = e.conflicts;
    r_total_ms = Histogram.sum e.hist;
    r_min_ms = finite_or_zero (Histogram.min_value e.hist);
    r_max_ms = finite_or_zero (Histogram.max_value e.hist);
    r_p50_ms = quantile_or_zero e.hist 0.5;
    r_p99_ms = quantile_or_zero e.hist 0.99;
    r_last_qid = e.last_qid;
  }

(* Sorted by cumulative wall time, then fingerprint so equal-cost rows
   (common in tests: everything 0ms-ish) order deterministically. *)
let snapshot () =
  let rows =
    with_lock (fun () -> Hashtbl.fold (fun _ e acc -> row_of_entry e :: acc) entries [])
  in
  List.sort
    (fun a b ->
      match compare b.r_total_ms a.r_total_ms with
      | 0 -> compare a.r_fingerprint b.r_fingerprint
      | c -> c)
    rows

let truncate_text ?(width = 48) s =
  if String.length s <= width then s else String.sub s 0 (width - 1) ^ "…"

let render_top ?(limit = 20) () =
  let rows = snapshot () in
  let shown = List.filteri (fun i _ -> i < limit) rows in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-16s %6s %10s %8s %8s %8s %9s %8s %6s %-4s %s\n"
       "fingerprint" "calls" "total_ms" "p50_ms" "p99_ms" "rows" "wal_B"
       "lock_ms" "confl" "lang" "statement");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-16s %6d %10.2f %8.2f %8.2f %8d %9d %8.2f %6d %-4s %s\n"
           r.r_fingerprint r.r_calls r.r_total_ms r.r_p50_ms r.r_p99_ms r.r_rows
           r.r_wal_bytes r.r_lock_wait_ms r.r_conflicts r.r_lang
           (truncate_text r.r_text)))
    shown;
  if List.length rows > limit then
    Buffer.add_string buf (Printf.sprintf "… %d more\n" (List.length rows - limit));
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json () =
  let rows = snapshot () in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\"statements\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"fingerprint\":\"%s\",\"text\":\"%s\",\"lang\":\"%s\",\"calls\":%d,\"rows\":%d,\"tuples\":%d,\"wal_bytes\":%d,\"lock_wait_ms\":%.3f,\"conflicts\":%d,\"total_ms\":%.3f,\"min_ms\":%.3f,\"max_ms\":%.3f,\"p50_ms\":%.3f,\"p99_ms\":%.3f,\"last_qid\":\"%s\"}"
           r.r_fingerprint (json_escape r.r_text) (json_escape r.r_lang) r.r_calls
           r.r_rows r.r_tuples r.r_wal_bytes r.r_lock_wait_ms r.r_conflicts
           r.r_total_ms r.r_min_ms
           r.r_max_ms r.r_p50_ms r.r_p99_ms (json_escape r.r_last_qid)))
    rows;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let to_prometheus ?(prefix = "mxra_stmt_") () =
  let rows = snapshot () in
  let labels r = [ ("fingerprint", r.r_fingerprint); ("lang", r.r_lang) ] in
  let family kind name help pick =
    Prometheus.labeled ~help ~kind (prefix ^ name)
      (List.map (fun r -> (labels r, pick r)) rows)
  in
  family "counter" "calls_total" "executions per statement fingerprint"
    (fun r -> float_of_int r.r_calls)
  ^ family "counter" "ms_total" "cumulative wall ms per statement fingerprint"
      (fun r -> r.r_total_ms)
  ^ family "counter" "rows_total" "rows returned per statement fingerprint"
      (fun r -> float_of_int r.r_rows)
  ^ family "counter" "wal_bytes_total" "WAL payload bytes per statement fingerprint"
      (fun r -> float_of_int r.r_wal_bytes)
  ^ family "counter" "lock_wait_ms_total" "lock-wait ms per statement fingerprint"
      (fun r -> r.r_lock_wait_ms)
  ^ family "counter" "conflicts_total"
      "snapshot-isolation write-write conflict aborts per statement fingerprint"
      (fun r -> float_of_int r.r_conflicts)
