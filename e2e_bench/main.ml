(* The end-to-end benchmark: one closed-loop client driving the library
   path a [bagdb run] / [bagdb sql] user takes (see path.ml), timed from
   outside each call.

   Usage:
     main.exe --workload olap|olap_par|oltp --seed N --seconds S
              --trace 0|1 [--size full|tiny] [--commit ID]

   A run's operation sequence is a function of the seed alone: it runs a
   fixed number of whole passes (olap) or blocks (oltp), that number set
   by [--seconds].  Every timing is reported at the nominal host speed of
   host.ml.  The last line of standard output is one JSON object: the
   end-to-end metrics with [--trace 0], the per-layer metrics with
   [--trace 1].  A human-readable report goes to standard error.  See
   README.md for the workloads and what each metric should move. *)

open Mxra_relational
open Mxra_core
module W = Mxra_workload
module Exec = Mxra_engine.Exec
module Physical = Mxra_engine.Physical
module Scheduler = Mxra_concurrency.Scheduler
module Store = Mxra_storage.Store
module Codec = Mxra_storage.Codec
module Vfs = Mxra_storage.Vfs
module Pool = Mxra_ext.Pool
module Index = Mxra_ext.Index
module Wait = Mxra_obs.Wait

type workload = Olap | Olap_par | Oltp

let workload_name = function
  | Olap -> "olap"
  | Olap_par -> "olap_par"
  | Oltp -> "oltp"

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* --- command line ------------------------------------------------------- *)

type args = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  size : Inputs.size;
  commit : string;
}

let parse_args () =
  let workload = ref None and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref false and size = ref Inputs.full in
  let commit = ref "unknown" in
  let set_workload = function
    | "olap" -> workload := Some Olap
    | "olap_par" -> workload := Some Olap_par
    | "oltp" -> workload := Some Oltp
    | w -> raise (Arg.Bad ("unknown workload " ^ w))
  in
  let set_trace = function
    | 0 -> trace := false
    | 1 -> trace := true
    | _ -> raise (Arg.Bad "--trace takes 0 or 1")
  in
  let set_size = function
    | "full" -> size := Inputs.full
    | "tiny" -> size := Inputs.tiny
    | s -> raise (Arg.Bad ("unknown size " ^ s))
  in
  let usage =
    "main.exe --workload olap|olap_par|oltp --seed N --seconds S --trace 0|1 \
     [--size full|tiny] [--commit ID]"
  in
  Arg.parse
    [
      ("--workload", Arg.String set_workload, " olap | olap_par | oltp");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " sets the number of passes");
      ("--trace", Arg.Int set_trace, " 0: end-to-end metrics, 1: per-layer");
      ("--size", Arg.String set_size, " full (default) | tiny (self-test)");
      ("--commit", Arg.Set_string commit, " source version, for the report");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match !workload with
  | Some w ->
      {
        workload = w;
        seed = !seed;
        seconds = !seconds;
        trace = !trace;
        size = !size;
        commit = !commit;
      }
  | None ->
      prerr_endline usage;
      exit 2

(* The [MXRA_*] variables change the code path (chunk size, forced
   indexes, assumed cores, isolation, ASH and statement statistics off);
   a run under any of them does not measure what the benchmark names. *)
let guard_environment ~jobs =
  let set =
    List.filter
      (fun kv -> String.length kv >= 5 && String.sub kv 0 5 = "MXRA_")
      (Array.to_list (Unix.environment ()))
  in
  if set <> [] then begin
    log "refusing to run with %s set" (String.concat ", " set);
    exit 2
  end;
  let nproc = Stdlib.Domain.recommended_domain_count () in
  if jobs > nproc then begin
    log "refusing to run: a pool of %d would exceed the %d cores" jobs nproc;
    exit 2
  end

(* --- tallies ------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0

let fail what =
  incr failed;
  log "FAILED: %s" what

let check ok what =
  incr attempted;
  if not ok then fail what

(* Counters gathered on traced operations only, keyed by metric. *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 64
let count k = Option.value ~default:0.0 (Hashtbl.find_opt counts k)
let bump k v = Hashtbl.replace counts k (count k +. v)

let probe telemetry key =
  Option.value ~default:0.0 (List.assoc_opt key (telemetry ()))

(* Process-wide counters whose per-operation deltas a traced operation
   attributes to itself. *)
let gauges () =
  let gc = Gc.quick_stat () in
  [
    ("index.builds", probe Index.telemetry "index.builds");
    ("index.maintained", probe Index.telemetry "index.maintained");
    ("index.probes", probe Index.telemetry "index.probes");
    ("index.cache_hits", probe Index.telemetry "index.cache_hits");
    ("pool.maps", probe Pool.telemetry "pool.maps");
    ("wait.pool.queue.ms", Wait.waited_ms Wait.Pool_queue);
    ("gc.minor_collections", float_of_int gc.Gc.minor_collections);
    ("gc.major_collections", float_of_int gc.Gc.major_collections);
  ]

let bump_deltas before after =
  List.iter2 (fun (k, a) (_, b) -> bump k (b -. a)) before after

let rec index_paths p =
  (match p with Physical.Index_scan _ | Physical.Index_join _ -> 1 | _ -> 0)
  + List.fold_left (fun n c -> n + index_paths c) 0 (Physical.children p)

(* Bag digest over exact float bits: "identical" means bit-identical. *)
let digest r =
  let b = Buffer.create 4096 in
  List.iter
    (fun (t, n) ->
      List.iter
        (fun v ->
          (match v with
          | Value.Float f -> Printf.bprintf b "%h" f
          | v -> Buffer.add_string b (Value.to_string v));
          Buffer.add_char b '\t')
        (Tuple.to_list t);
      Printf.bprintf b "%d\n" n)
    (Relation.to_counted_list r);
  Digest.to_hex (Digest.string (Buffer.contents b))

let median xs =
  match xs with
  | [] -> nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
let sum xs = List.fold_left ( +. ) 0.0 xs

(* --- timing ------------------------------------------------------------- *)

(* Operations are timed raw.  A host reading is taken between operations
   once [Host.cadence_ms] of operation time has passed since the last one,
   and at the end of every block; each operation is brought to nominal
   speed by the mean of the two readings around it. *)
let last_reading = ref nan

type sample = { kind : string; raw_ms : float; traced : bool }

let pending : sample list ref = ref []
let pending_ms = ref 0.0

(* Every sample of the run, by kind, newest first: at nominal speed from
   untraced and from traced operations, and raw. *)
let samples : (string, float list) Hashtbl.t = Hashtbl.create 16
let traced_samples : (string, float list) Hashtbl.t = Hashtbl.create 16
let raw_samples : (string, float list) Hashtbl.t = Hashtbl.create 16

let push tbl k v =
  Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))

let get tbl k = Option.value ~default:[] (Hashtbl.find_opt tbl k)

(* Nominal ms of the current block, and of all untraced blocks. *)
let block_ms = ref 0.0
let busy_ms = ref 0.0

let flush () =
  let after = Host.reading () in
  let f = Host.factor ~before:!last_reading ~after in
  last_reading := after;
  List.iter
    (fun s ->
      let ms = s.raw_ms *. f in
      push raw_samples s.kind s.raw_ms;
      push (if s.traced then traced_samples else samples) s.kind ms;
      block_ms := !block_ms +. ms)
    !pending;
  pending := [];
  pending_ms := 0.0

(* The major heap's size after every untraced operation, in MB. *)
let heap_mb : float list ref = ref []
let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

let open_block () =
  if Float.is_nan !last_reading then last_reading := Host.reading ();
  block_ms := 0.0

(* Close the block; a pass block is recorded as one ["pass"] sample. *)
let close_block ?(pass = true) ~traced () =
  flush ();
  if pass then begin
    push (if traced then traced_samples else samples) "pass" !block_ms;
    if not traced then busy_ms := !busy_ms +. !block_ms
  end

(* Every timed operation starts on an empty minor heap; the collection
   before the clock starts takes only what the benchmark allocated between
   operations.  Before the clock stops, the operation collects what it
   left itself: the minor heap, and with [~finish] the rest of the major
   cycle.  It so pays for the collections its own allocation causes, and
   the next operation starts clean.  A traced operation's gauges are read
   on the clock but around these forced collections (the reading itself is
   not timed), so the gc counts hold only collections the program
   triggers. *)
let timed ?(finish = false) ~kind ~traced f =
  Gc.minor ();
  let before = if traced then gauges () else [] in
  Spans.enabled := traced;
  let t0 = Spans.now () in
  let v = Fun.protect ~finally:(fun () -> Spans.enabled := false) f in
  let t1 = Spans.now () in
  if traced then bump_deltas before (gauges ());
  let t2 = Spans.now () in
  if finish then Gc.major () else Gc.minor ();
  let raw_ms = (t1 -. t0 +. (Spans.now () -. t2)) *. 1000.0 in
  pending := { kind; raw_ms; traced } :: !pending;
  if not traced then heap_mb := mb (Gc.quick_stat ()).Gc.heap_words :: !heap_mb;
  pending_ms := !pending_ms +. raw_ms;
  if !pending_ms >= Host.cadence_ms then flush ();
  v

(* --- the state of a run ------------------------------------------------- *)

type state = {
  mutable db : Database.t;
  store : Path.store;
  jobs : int;
  digests : (string, string) Hashtbl.t;  (** olap: label -> jobs=1 digest *)
  mutable reads_done : int;
  mutable txn_attempts : int;
  mutable txn_commits : int;
}

let open_store db =
  let vfs = Vfs.memory () in
  let handle = Store.open_dir ~vfs "db" in
  Store.absorb_batch handle [] db;
  Store.checkpoint handle;
  { Path.vfs; handle }

(* The set-up a user pays before the first statement: generate the
   inputs, build the database and its indexes, and make the initial
   snapshot durable. *)
let setup w (sz : Inputs.size) ~seed ~jobs =
  let db =
    match w with
    | Olap | Olap_par ->
        Inputs.olap_database ~seed ~orders:sz.orders ~customers:sz.customers
          ~breweries:sz.breweries ~beers:sz.beers
    | Oltp ->
        Inputs.oltp_database ~seed ~orders:sz.orders ~customers:sz.customers
  in
  {
    db;
    store = open_store db;
    jobs;
    digests = Hashtbl.create 8;
    reads_done = 0;
    txn_attempts = 0;
    txn_commits = 0;
  }

(* Untimed, once: plan and run every statement shape, which builds the
   index structures.  olap runs its report sequentially and keeps each
   result's digest: every later pass, sequential or parallel, must
   reproduce it. *)
let warm_up w st =
  match w with
  | Olap | Olap_par ->
      List.iter
        (fun (r : Path.read) ->
          let res = Path.run_read ~jobs:1 st.db r in
          Hashtbl.replace st.digests r.label (digest res.result);
          if st.jobs > 1 then ignore (Path.run_read ~jobs:st.jobs st.db r))
        Inputs.report
  | Oltp ->
      List.iter
        (fun text ->
          let r = Inputs.read "warm-up" Path.Sql text in
          ignore (Path.run_read ~jobs:st.jobs st.db r))
        [
          "SELECT * FROM orders WHERE id = 1";
          "SELECT * FROM orders WHERE day >= 1 AND day <= 2";
        ]

(* --- operations --------------------------------------------------------- *)

let traced_read_counts (res : Path.read_result) ~moved =
  bump "reads" 1.0;
  bump "planner.index_paths" (float_of_int (index_paths res.plan));
  bump "planner.exchanges" (float_of_int (Physical.exchange_count res.plan));
  bump "exec.rows_out" (float_of_int (Relation.cardinal res.result));
  bump "exec.tuples_moved" moved

(* One read statement: timed, then (untimed) counted and checked.  [ok]
   gets the result record.  [finish] is set when a write round comes next:
   the read then finishes the major cycle it left open, and the round
   starts on a finished one. *)
let do_read st ~traced ~finish ?moved (r : Path.read) ok =
  incr attempted;
  match
    timed ~finish ~kind:r.label ~traced (fun () ->
        Path.run_read ~jobs:st.jobs st.db r)
  with
  | exception ex ->
      fail (Printf.sprintf "%s raised %s" r.text (Printexc.to_string ex));
      None
  | res ->
      st.reads_done <- st.reads_done + 1;
      if traced then begin
        let moved =
          match moved with
          | Some m -> m (res : Path.read_result)
          | None -> float_of_int (Exec.tuples_moved res.db res.plan)
        in
        traced_read_counts res ~moved
      end;
      if not (ok res) then fail ("output check of " ^ r.text);
      Some res

(* One write round; returns, per transaction in submission order, whether
   it aborted. *)
let do_round st ~traced ~seed texts =
  let n = List.length texts in
  attempted := !attempted + n;
  st.txn_attempts <- st.txn_attempts + n;
  let fsyncs0 = Store.fsyncs st.store.handle in
  let wal0 = probe (Store.telemetry st.store.handle) "store.wal_bytes" in
  let db0 = st.db in
  match
    timed ~kind:"round" ~traced (fun () ->
        Path.run_round ~store:st.store ~seed db0 texts)
  with
  | exception ex ->
      failed := !failed + n - 1;
      fail (Printf.sprintf "write round raised %s" (Printexc.to_string ex));
      List.map (fun _ -> false) texts
  | txns, r ->
      st.db <- r.Scheduler.final;
      let committed = List.length r.Scheduler.commit_order in
      st.txn_commits <- st.txn_commits + committed;
      if traced then begin
        bump "rounds" 1.0;
        let s = r.Scheduler.stats in
        bump "scheduler.steps" (float_of_int s.Scheduler.steps);
        bump "scheduler.conflicts" (float_of_int s.Scheduler.conflicts);
        bump "scheduler.attempts" (float_of_int n);
        bump "scheduler.commits" (float_of_int committed);
        bump "store.fsyncs"
          (float_of_int (Store.fsyncs st.store.handle - fsyncs0));
        bump "store.wal_bytes"
          (probe (Store.telemetry st.store.handle) "store.wal_bytes" -. wal0);
        bump "store.wal_txns" (float_of_int committed)
      end;
      (* The schedule must equal the serial execution of the committed
         transactions in commit order. *)
      check (Scheduler.check db0 txns r)
        "write round is not equivalent to its serial order";
      List.map
        (function Scheduler.Aborted _ -> true | Scheduler.Committed -> false)
        r.Scheduler.outcomes

(* --- the timed phase ---------------------------------------------------- *)

(* Tracing alternates by pass in the traced run, so traced and untraced
   operations see the same warmed-up process; the difference is the
   tracing overhead.  Each pass runs the report in a fresh seeded order:
   a statement pays part of the GC work the one before it left, and in a
   fixed order that cost would be the same in every pass of a run. *)
let run_olap st ~trace ~seed ~passes =
  (* The statements' inputs never change, so their tuple traffic is
     counted once per statement. *)
  let moved_memo = Hashtbl.create 8 in
  let moved (res : Path.read_result) label =
    match Hashtbl.find_opt moved_memo label with
    | Some m -> m
    | None ->
        let m = float_of_int (Exec.tuples_moved res.db res.plan) in
        Hashtbl.replace moved_memo label m;
        m
  in
  let rng = W.Rng.make (seed + 3_000_017) in
  for pass = 1 to passes do
    let traced = trace && pass mod 2 = 0 in
    open_block ();
    List.iteri
      (fun i (r : Path.read) ->
        let ok (res : Path.read_result) =
          digest res.result = Hashtbl.find st.digests r.label
        in
        let rows =
          let moved res = moved res r.label in
          match do_read st ~traced ~finish:true ~moved r ok with
          | Some res -> Relation.cardinal res.result
          | None -> -1
        in
        ignore
          (do_round st ~traced
             ~seed:(seed + (pass * 100) + i)
             [ Inputs.save_row ~pass ~query:r.label ~rows ]))
      (W.Rng.shuffle rng Inputs.report);
    close_block ~traced ()
  done

(* A write round holds the oldest two queued updates and the oldest two
   queued inserts.  Updates write only [orders] and inserts only
   [lineitem], so under relation-granular first-committer-wins at most one
   of each pair aborts; an aborted transaction goes back to the front of
   its queue and runs in the next round.  Every round so has the same
   make-up, whatever aborted before it. *)
let run_oltp st ~trace ~seed ~blocks ~orders =
  let next = Inputs.oltp_blocks ~rng:(W.Rng.make (seed + 2_000_029)) ~orders in
  let updates = ref [] and inserts = ref [] in
  let ok (res : Path.read_result) =
    Relation.equal res.result (Eval.eval res.db res.expr)
  in
  let take q =
    ( List.filteri (fun i _ -> i < Inputs.writes_per_kind) q,
      List.filteri (fun i _ -> i >= Inputs.writes_per_kind) q )
  in
  let rounds = ref 0 in
  let round ~traced b =
    incr rounds;
    updates := !updates @ b.Inputs.updates;
    inserts := !inserts @ b.Inputs.inserts;
    let us, us_rest = take !updates and is, is_rest = take !inserts in
    let aborted = do_round st ~traced ~seed:(seed + !rounds) (us @ is) in
    let us_aborted, is_aborted = take aborted in
    let again texts flags =
      List.filter_map
        (fun (t, a) -> if a then Some t else None)
        (List.combine texts flags)
    in
    updates := again us us_aborted @ us_rest;
    inserts := again is is_aborted @ is_rest
  in
  (* Blocks are made one ahead, so the last read of a block knows whether
     the next block opens with its round. *)
  let upcoming = ref (next ()) in
  for block = 1 to blocks do
    let traced = trace && block mod 2 = 0 in
    let b = !upcoming in
    upcoming := next ();
    let last = List.length b.reads - 1 in
    open_block ();
    List.iteri
      (fun i r ->
        if i = b.round_at then round ~traced b;
        let finish =
          i + 1 = b.round_at
          || (i = last && block < blocks && (!upcoming).round_at = 0)
        in
        ignore (do_read st ~traced ~finish r ok))
      b.reads;
    if b.round_at = List.length b.reads then round ~traced b;
    close_block ~traced ()
  done

(* --- checks and durability after the timed phase ------------------------ *)

(* olap: every statement against the reference evaluator on a reduced
   instance from the same generator (Eval's joins are nested loops). *)
let check_olap_oracle (sz : Inputs.size) ~seed ~jobs =
  let small =
    Inputs.olap_database ~seed ~orders:sz.check_orders
      ~customers:sz.check_customers ~breweries:sz.check_breweries
      ~beers:sz.check_beers
  in
  List.iter
    (fun (r : Path.read) ->
      match Path.run_read ~jobs small r with
      | res ->
          check
            (Relation.equal res.result (Eval.eval res.db res.expr))
            ("Eval oracle on the reduced instance: " ^ r.label)
      | exception ex ->
          incr attempted;
          fail (r.label ^ " raised " ^ Printexc.to_string ex))
    Inputs.report

(* Checkpoint and recovery, each timed as its own operation on a store
   whose contents depend only on the seed: the initial snapshot plus the
   log of the run's fixed sequence of rounds.  Recoveries run first, so
   they replay that log; then the checkpoints rewrite the same state.  In
   the traced run, traced and untraced repetitions alternate, and each
   traced one also times the codec on the final state.  Each operation
   starts on a heap from which the benchmark has dropped the previous
   operation's result, and finishes its own major cycle on the clock. *)
let durability st ~trace ~reps =
  let durable_op kind f =
    Gc.full_major ();
    timed ~finish:true ~kind ~traced:false f
  in
  let traced_op kind f =
    Gc.full_major ();
    Spans.enabled := true;
    Fun.protect ~finally:(fun () -> Spans.enabled := false) (fun () ->
        Spans.with_span kind (fun () ->
            let v = f () in
            Gc.major ();
            v))
  in
  for i = 1 to reps do
    let traced = trace && i mod 2 = 0 in
    open_block ();
    let op = if traced then traced_op else durable_op in
    let recovered =
      op "recover" (fun () -> Store.recover_dir ~vfs:st.store.vfs "db")
    in
    close_block ~pass:false ~traced ();
    check
      (Database.equal_states recovered st.db)
      "recovered state differs from the run's final state"
  done;
  for i = 1 to reps do
    let traced = trace && i mod 2 = 0 in
    open_block ();
    let op = if traced then traced_op else durable_op in
    op "checkpoint" (fun () -> Store.checkpoint st.store.handle);
    if traced then begin
      let text = op "codec.encode" (fun () -> Codec.encode_database st.db) in
      let decoded = op "codec.decode" (fun () -> Codec.decode_database text) in
      bump "codec.runs" 1.0;
      bump "codec.bytes" (float_of_int (String.length text));
      check (Database.equal_states decoded st.db) "codec round trip"
    end;
    close_block ~pass:false ~traced ()
  done;
  check
    (Database.equal_states (Store.recover_dir ~vfs:st.store.vfs "db") st.db)
    "recovery after checkpoint differs from the run's final state"

(* --- report ------------------------------------------------------------- *)

let ratio a b = if b > 0.0 then a /. b else 0.0

let total_rows db =
  List.fold_left
    (fun n name -> n + Relation.cardinal (Database.find name db))
    0 (Database.persistent_names db)

let print_result metrics =
  let json (name, unit, v) =
    let v =
      if Float.is_finite v then Printf.sprintf "%.17g" v
      else begin
        fail (name ^ " was not measured");
        "null"
      end
    in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name v unit
  in
  List.iter
    (fun (name, unit, v) -> log "  %-32s %14.6g %s" name v unit)
    metrics;
  let body = String.concat ", " (List.map json metrics) in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n%!"
    (!failed = 0) !attempted !failed body;
  exit (if !failed = 0 then 0 else 1)

let end_to_end st ~setups_ms ~heap_mb_mean =
  let busy_s = !busy_ms /. 1000.0 in
  let commits = float_of_int st.txn_commits in
  [
    ("setup_s", "s", median setups_ms /. 1000.0);
    ("ops_per_s", "1/s",
      float_of_int (st.reads_done + st.txn_commits) /. busy_s);
    ("heap_mb_mean", "MB", heap_mb_mean);
    ("pass_ms_p50", "ms", median (get samples "pass"));
    ("commit_ms_p50", "ms", median (get samples "round"));
    ("committed_txn_per_s", "1/s", commits /. busy_s);
    ("txn_attempts_per_commit", "ratio",
      float_of_int st.txn_attempts /. commits);
    ("checkpoint_ms", "ms", median (get samples "checkpoint"));
    ("recover_ms", "ms", median (get samples "recover"));
  ]

let durable_roots =
  [ "round"; "recover"; "checkpoint"; "codec.encode"; "codec.decode" ]

(* Every per-layer figure comes from the traced operations of a traced
   run, brought to nominal speed by the run's median host reading. *)
let per_layer st ~peak_heap_mb =
  let f = Host.nominal_ms /. median !Host.readings in
  let all = Spans.with_self () in
  let roots pred =
    List.filter
      (fun ((s : Spans.span), _, _) -> s.parent < 0 && pred s.name)
      all
  in
  let root_name = Hashtbl.create 1024 in
  List.iter
    (fun ((s : Spans.span), _, _) -> Hashtbl.replace root_name s.id s.name)
    (roots (fun _ -> true));
  let is_read name = not (List.mem name durable_roots) in
  (* Self ms and self minor words of the [name] spans under matching roots. *)
  let layer pred name =
    List.fold_left
      (fun (ms, words) ((s : Spans.span), self, self_words) ->
        if
          s.parent >= 0 && s.name = name
          && pred (Hashtbl.find root_name s.root)
        then (ms +. (self *. 1000.0 *. f), words +. self_words)
        else (ms, words))
      (0.0, 0.0) all
  in
  let n_roots pred = float_of_int (List.length (roots pred)) in
  let root_ms name =
    let ms = List.map (fun (s, _, _) -> Spans.duration s *. 1000.0 *. f) in
    ratio (sum (ms (roots (( = ) name)))) (n_roots (( = ) name))
  in
  (* The share of the roots' time their layer spans cover. *)
  let coverage pred =
    let rs = roots pred in
    let total = sum (List.map (fun (s, _, _) -> Spans.duration s) rs) in
    let self = sum (List.map (fun (_, self, _) -> self) rs) in
    ratio (total -. self) total
  in
  let reads = count "reads" and rounds = count "rounds" in
  let ops = reads +. rounds in
  let counted unit per names =
    List.map (fun k -> (k, unit, ratio (count k) per)) names
  in
  let read_layer ?(words = true) name =
    let ms, w = layer is_read name in
    (name ^ ".ms", "ms/stmt", ratio ms reads)
    ::
    (if words then [ (name ^ ".minor_words", "words/stmt", ratio w reads) ]
     else [])
  in
  let exec_words = snd (layer is_read "exec") in
  let exec_of (r : Path.read) =
    let is_label n = n = r.label in
    ( "exec." ^ r.label ^ ".ms",
      "ms/stmt",
      ratio (fst (layer is_label "exec")) (n_roots is_label) )
  in
  let round_layer metric name =
    (metric, "ms/round", ratio (fst (layer (( = ) "round") name)) rounds)
  in
  let hits = count "index.cache_hits" in
  let class_ms kind = match get samples kind with [] -> 0.0 | xs -> median xs in
  let frac a b = ratio (float_of_int a) (float_of_int b) in
  read_layer "frontend"
  @ read_layer ~words:false "typecheck"
  @ read_layer "optimizer" @ read_layer "planner"
  @ counted "count/stmt" reads [ "planner.index_paths"; "planner.exchanges" ]
  @ [
      ("obs.ms", "ms/stmt", ratio (fst (layer is_read "obs")) reads);
      ( "obs.ash_estimate_ms",
        "ms/stmt",
        ratio (fst (layer is_read "obs.ash_estimate")) reads );
    ]
  @ read_layer "exec"
  @ [
      ( "exec.minor_words_per_row",
        "words/row",
        ratio exec_words (count "exec.rows_out") );
    ]
  @ counted "tuples/stmt" reads [ "exec.tuples_moved" ]
  @ counted "rows/stmt" reads [ "exec.rows_out" ]
  @ List.map exec_of Inputs.report
  @ counted "count/stmt" reads [ "pool.maps" ]
  @ counted "ms/stmt" reads [ "wait.pool.queue.ms" ]
  @ counted "count/op" ops [ "index.probes"; "index.maintained" ]
  @ [
      ( "index.cache_hit_ratio",
        "fraction",
        ratio hits (hits +. count "index.builds") );
      round_layer "scheduler.ms" "scheduler";
    ]
  @ counted "count/round" rounds [ "scheduler.steps"; "scheduler.conflicts" ]
  @ [
      ( "scheduler.useful_ratio",
        "fraction",
        ratio (count "scheduler.commits") (count "scheduler.attempts") );
      round_layer "store.append_ms" "store";
    ]
  @ counted "count/round" rounds [ "store.fsyncs" ]
  @ [
      ( "store.wal_bytes_per_txn",
        "bytes/txn",
        ratio (count "store.wal_bytes") (count "store.wal_txns") );
      ("codec.encode_ms", "ms", root_ms "codec.encode");
      ("codec.decode_ms", "ms", root_ms "codec.decode");
      ( "store.snapshot_bytes_per_row",
        "bytes/row",
        ratio (count "codec.bytes")
          (count "codec.runs" *. float_of_int (total_rows st.db)) );
      ("gc.peak_heap_mb", "MB", peak_heap_mb);
    ]
  @ counted "count/op" ops [ "gc.minor_collections"; "gc.major_collections" ]
  @ [
      ("point_ms_p50", "ms", class_ms "point");
      ("range_ms_p50", "ms", class_ms "range");
      ("host.ref_ms", "ms", median !Host.readings);
      ("host.drift", "ratio", Host.drift ());
      ( "trace.overhead",
        "fraction",
        ratio (median (get traced_samples "pass")) (median (get samples "pass"))
        -. 1.0 );
      ("coverage.reads", "fraction", coverage is_read);
      ("coverage.rounds", "fraction", coverage (( = ) "round"));
      ("abort_frac", "fraction", 1.0 -. frac st.txn_commits st.txn_attempts);
      ("error_frac", "fraction", frac !failed !attempted);
    ]

let log_samples () =
  let kinds =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) raw_samples [])
  in
  List.iter
    (fun k ->
      let norm = get samples k and raw = get raw_samples k in
      log "  %-22s n=%4d  raw median %10.3f ms  nominal median %10.3f ms" k
        (List.length raw) (median raw) (median norm);
      if List.length norm <= 16 then
        log "    nominal: %s"
          (String.concat " " (List.rev_map (Printf.sprintf "%.2f") norm)))
    kinds;
  log "  host reference: median %.3f ms over %d readings, drift (max/min) %.3f"
    (median !Host.readings) (List.length !Host.readings) (Host.drift ())

(* --- main --------------------------------------------------------------- *)

let () =
  let a = parse_args () in
  let w = a.workload and sz = a.size and seed = a.seed in
  let jobs = match w with Olap_par -> 2 | Olap | Oltp -> 1 in
  guard_environment ~jobs;
  Pool.set_default_size jobs;
  log "workload %s, seed %d, nproc %d, jobs %d, OCaml %s, commit %s"
    (workload_name w) seed
    (Stdlib.Domain.recommended_domain_count ())
    jobs Sys.ocaml_version a.commit;
  log "flush policy: Vfs.memory (store.fsyncs counts durable appends)";
  let passes per_s = max 2 (int_of_float (Float.round (a.seconds *. per_s))) in
  (* Set-up is timed several times; the state of the last one is used. *)
  let setup_once () =
    Gc.compact ();
    open_block ();
    let st =
      timed ~kind:"setup" ~traced:false (fun () -> setup w sz ~seed ~jobs)
    in
    close_block ~pass:false ~traced:false ();
    st
  in
  for _ = 2 to sz.setups do
    ignore (setup_once ())
  done;
  let st = setup_once () in
  warm_up w st;
  Gc.compact ();
  heap_mb := [];
  (match w with
  | Olap ->
      run_olap st ~trace:a.trace ~seed ~passes:(passes sz.olap_passes_per_s)
  | Olap_par ->
      run_olap st ~trace:a.trace ~seed ~passes:(passes sz.olap_par_passes_per_s)
  | Oltp ->
      run_oltp st ~trace:a.trace ~seed ~blocks:(passes sz.oltp_blocks_per_s)
        ~orders:sz.orders);
  let heap_mb_mean = sum !heap_mb /. float_of_int (List.length !heap_mb) in
  let peak_heap_mb = mb (Gc.quick_stat ()).Gc.top_heap_words in
  (match w with
  | Olap | Olap_par -> check_olap_oracle sz ~seed ~jobs
  | Oltp -> ());
  (* No idle pool domain sits beside the durability phase. *)
  Pool.set_default_size 1;
  ignore (Pool.global ());
  durability st ~trace:a.trace ~reps:sz.durability_reps;
  Store.close st.store.handle;
  log "%d reads, %d/%d transactions committed, %d/%d checks failed"
    st.reads_done
    st.txn_commits st.txn_attempts !failed !attempted;
  log_samples ();
  if a.trace then begin
    (try Sys.mkdir ".bench_out" 0o755 with Sys_error _ -> ());
    let path =
      Printf.sprintf ".bench_out/spans-%s-%d.json" (workload_name w) seed
    in
    Spans.write_chrome path;
    log "spans written to %s" path;
    print_result (per_layer st ~peak_heap_mb)
  end
  else
    print_result (end_to_end st ~setups_ms:(get samples "setup") ~heap_mb_mean)
