open Mxra_relational
open Mxra_core
module Trace = Mxra_obs.Trace
module Ash = Mxra_obs.Ash
module Pool = Mxra_ext.Pool
module Index = Mxra_ext.Index

module TH = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

(* --- incremental aggregate accumulators ------------------------------- *)

type agg_state =
  | S_cnt of int
  | S_sum_int of int
  | S_min of Value.t option
  | S_max of Value.t option
  | S_column of Aggregate.kind * Domain.t * (Value.t * int) list
      (* Buffered fallback delegating to the reference computation, used
         wherever incremental folding could disagree with the formal
         semantics in the last float ulp (AVG, float SUM, VAR, STDDEV);
         Aggregate canonicalises the column order internally, so engine
         and reference agree bit for bit. *)

let initial_state kind domain =
  match (kind, domain) with
  | Aggregate.Cnt, _ -> S_cnt 0
  | Aggregate.Sum, Domain.DFloat -> S_column (kind, domain, [])
  | Aggregate.Sum, (Domain.DInt | Domain.DStr | Domain.DBool) -> S_sum_int 0
  | Aggregate.Avg, _ -> S_column (kind, domain, [])
  | Aggregate.Min, _ -> S_min None
  | Aggregate.Max, _ -> S_max None
  | (Aggregate.Var | Aggregate.Stddev), _ -> S_column (kind, domain, [])

let update_state state v n =
  match state with
  | S_cnt c -> S_cnt (c + n)
  | S_sum_int s -> (
      match v with
      | Value.Int x -> S_sum_int (s + (x * n))
      | Value.Float _ | Value.Str _ | Value.Bool _ ->
          raise (Scalar.Eval_error "SUM over a non-integer value"))
  | S_min best -> (
      match best with
      | None -> S_min (Some v)
      | Some w ->
          S_min (Some (if Value.compare_same_domain v w < 0 then v else w)))
  | S_max best -> (
      match best with
      | None -> S_max (Some v)
      | Some w ->
          S_max (Some (if Value.compare_same_domain v w > 0 then v else w)))
  | S_column (kind, domain, column) -> S_column (kind, domain, (v, n) :: column)

let finalize_state = function
  | S_cnt c -> Value.Int c
  | S_sum_int s -> Value.Int s
  | S_min None -> raise (Aggregate.Undefined Aggregate.Min)
  | S_min (Some v) -> v
  | S_max None -> raise (Aggregate.Undefined Aggregate.Max)
  | S_max (Some v) -> v
  | S_column (kind, domain, column) -> Aggregate.compute_for domain kind column

(* Combine two partial accumulator states of the same aggregate: counts
   and integer sums add, extrema keep the extremum, buffered columns
   concatenate (their final computation canonicalises the order, so the
   combined result is bit-identical to the sequential one). *)
let combine_state a b =
  match (a, b) with
  | S_cnt x, S_cnt y -> S_cnt (x + y)
  | S_sum_int x, S_sum_int y -> S_sum_int (x + y)
  | S_min x, S_min y ->
      S_min
        (match (x, y) with
        | None, w | w, None -> w
        | Some v, Some w ->
            Some (if Value.compare_same_domain v w < 0 then v else w))
  | S_max x, S_max y ->
      S_max
        (match (x, y) with
        | None, w | w, None -> w
        | Some v, Some w ->
            Some (if Value.compare_same_domain v w > 0 then v else w))
  | S_column (kind, domain, c1), S_column (_, _, c2) ->
      S_column (kind, domain, List.rev_append c1 c2)
  | (S_cnt _ | S_sum_int _ | S_min _ | S_max _ | S_column _), _ ->
      invalid_arg "Exec: mismatched partial aggregate states"

let initial_states input_schema aggs =
  Array.of_list
    (List.map
       (fun (kind, p) -> initial_state kind (Schema.domain input_schema p))
       aggs)

(* Γ's group-accumulate kernel, shared by the sequential operator and
   every Exchange fragment: fold the counted rows [iter] yields into one
   state array per grouping-key tuple. *)
let accumulate_groups input_schema attrs aggs iter =
  let positions = Array.of_list (List.map snd aggs) in
  let groups = TH.create 64 in
  iter (fun (tuple, n) ->
      let key = Tuple.project attrs tuple in
      let states =
        match TH.find_opt groups key with
        | Some states -> states
        | None ->
            let states = initial_states input_schema aggs in
            TH.add groups key states;
            states
      in
      Array.iteri
        (fun i state ->
          states.(i) <- update_state state (Tuple.attr tuple positions.(i)) n)
        states);
  groups

(* --- row streams ------------------------------------------------------- *)

(* The executor's data flow is push-based: an operator is a [rows]
   function that hands every counted tuple it produces to the consumer
   it is given, and returns once it has produced them all.  Pipelined
   operators (scan, σ, π, the probe side of a join) wrap the consumer;
   blocking operators (hash build, Γ, δ, −, ∩) fill their hash tables
   from their inputs and then emit.  Nothing is buffered between
   operators, so equal tuples may arrive as several elements. *)
type rows = (Tuple.t * int -> unit) -> unit

let bag_rows bag k = Relation.Bag.iter (fun t n -> k (t, n)) bag

(* Materialise a stream: the inner side of a loop join, an Exchange's
   input.  The array holds the elements in reverse arrival order, which
   saves a list reversal; a bag has no order to keep. *)
let to_array (rows : rows) =
  let acc = ref [] in
  rows (fun x -> acc := x :: !acc);
  Array.of_list !acc

(* The output rows of accumulated groups.  Definition 3.4: with an empty
   grouping list the result is one tuple even over the empty input. *)
let group_rows input_schema attrs aggs groups : rows =
 fun k ->
  if attrs = [] && TH.length groups = 0 then
    TH.add groups Tuple.unit (initial_states input_schema aggs);
  TH.iter
    (fun key states ->
      let values = Array.to_list (Array.map finalize_state states) in
      k (Tuple.concat key (Tuple.of_list values), 1))
    groups

(* ⋈'s build/probe kernel, shared by the sequential hash join and every
   Exchange join fragment.  The build hashes the right rows [iter]
   yields on their key projection, one list of rows per distinct key;
   [probe] emits every residual-passing match of one left row. *)
let build_table right_keys iter =
  let table = TH.create 256 in
  iter (fun ((tuple, _) as row) ->
      let key = Tuple.project right_keys tuple in
      match TH.find_opt table key with
      | Some rows -> TH.replace table key (row :: rows)
      | None -> TH.add table key [ row ]);
  table

let probe table ~left_keys ~residual emit (ltuple, ln) =
  match TH.find_opt table (Tuple.project left_keys ltuple) with
  | None -> ()
  | Some matches ->
      List.iter
        (fun (rtuple, rn) ->
          let combined = Tuple.concat ltuple rtuple in
          if Pred.eval combined residual then emit (combined, ln * rn))
        matches

(* --- plan execution ---------------------------------------------------- *)

(* Collapse a stream into a per-tuple count table. *)
let count_table (rows : rows) =
  let table = TH.create 64 in
  rows (fun (t, n) ->
      match TH.find_opt table t with
      | Some c -> TH.replace table t (c + n)
      | None -> TH.add table t n);
  table

(* Instrumentation hooks.  [around node rows] wraps an operator's
   stream: it sees the operator's whole run (eager work — hash builds,
   scans — happens inside it) and may wrap the consumer, seeing every
   counted tuple the operator emits; summing those over operators
   measures the tuple traffic of the plan, and weighting by arity
   measures the data volume.  [observe node key value] reports an
   operator-specific gauge (hash-build size, group count, materialised
   inner cardinality). *)
type hooks = {
  around : Physical.t -> rows -> rows;
  observe : Physical.t -> string -> int -> unit;
}

let no_hooks = { around = (fun _ rows -> rows); observe = (fun _ _ _ -> ()) }

(* Root elements per [sys.progress] advance. *)
let progress_batch = 256

(* Live-progress hooks, composed over whatever instrumentation is
   already in place: when a statement registered itself in the activity
   registry ({!Mxra_obs.Ash.with_slot} around the execution), each
   operator stamps itself as the one currently producing when it emits
   its first element, and elements leaving the plan [root] advance the
   statement's row/batch counters every [progress_batch] elements and
   once at the end — sys.progress moves while the query runs.  With no
   ambient slot (registry off, or a bare [run]) the hooks are returned
   untouched: the hot path pays nothing. *)
let with_progress root base =
  match Ash.current () with
  | None -> base
  | Some slot ->
      let stamping kind k =
        let started = ref false in
        fun x ->
          if not !started then begin
            started := true;
            Ash.set_operator slot kind
          end;
          k x
      in
      {
        base with
        around =
          (fun p rows ->
            let rows = base.around p rows in
            let kind = Physical.kind p in
            if p != root then fun k -> rows (stamping kind k)
            else fun k ->
              let elems = ref 0 and pending = ref 0 in
              rows
                (stamping kind (fun ((_, n) as x) ->
                     incr elems;
                     pending := !pending + n;
                     if !elems = progress_batch then begin
                       Ash.advance slot ~rows:!pending;
                       elems := 0;
                       pending := 0
                     end;
                     k x));
              if !elems > 0 then Ash.advance slot ~rows:!pending);
      }

(* --- parallel execution of an Exchange node ---------------------------- *)

(* Run [work] on each fragment input on the global pool (each fragment is
   one morsel) and return the outputs in fragment order, with the summed
   fragment time in ms.  [rows] sizes a fragment's input; the largest is
   reported as [max-part], the bound on the Exchange's work balance
   (total input / max-part).  Each fragment's lane id and interval become
   a per-worker span in the trace, emitted from the coordinating domain —
   sinks are not required to be thread-safe — so Chrome/Perfetto shows
   one lane per domain. *)
let on_pool ~observe ~name ~rows work inputs =
  let timed =
    Pool.map_array ~chunk:1 (Pool.global ())
      (fun input ->
        let t0 = Trace.now_us () in
        let out = work input in
        (out, (Stdlib.Domain.self () :> int), t0, Trace.now_us () -. t0))
      inputs
  in
  let sizes = Array.map rows inputs in
  observe "parts" (Array.length inputs);
  observe "max-part" (Array.fold_left max 0 sizes);
  if Trace.enabled () then
    Array.iteri
      (fun i (_, lane, start_us, dur_us) ->
        Trace.complete name ~tid:lane ~start_us ~dur_us
          ~attrs:[ ("fragment", Trace.Int i); ("rows", Trace.Int sizes.(i)) ])
      timed;
  ( Array.map (fun (out, _, _, _) -> out) timed,
    Array.fold_left (fun acc (_, _, _, dur) -> acc +. dur) 0.0 timed /. 1000.0 )

(* Contiguous slices are a valid fragmentation for per-tuple operators:
   σ and π distribute over any ⊎-decomposition (Theorem 3.2). *)
let slices parts arr =
  let n = Array.length arr in
  Array.init parts (fun i ->
      let lo = i * n / parts and hi = (i + 1) * n / parts in
      Array.sub arr lo (hi - lo))

(* Hash-partition materialised rows into [parts] buckets on the
   projected key tuple; co-partitioning two inputs on equal-length key
   lists aligns matching tuples in same-numbered buckets. *)
let bucket_rows parts keys rows =
  let buckets = Array.make parts [] in
  Array.iter
    (fun (t, n) ->
      let slot = Tuple.hash (Tuple.project keys t) land max_int mod parts in
      buckets.(slot) <- (t, n) :: buckets.(slot))
    rows;
  buckets

(* The maximal σ/π pipeline above a source, as one per-tuple function. *)
let rec pipeline_stages plan =
  match plan with
  | Physical.Filter (p, t) ->
      let src, f = pipeline_stages t in
      ( src,
        fun tn ->
          match f tn with
          | Some (tup, _) as r when Pred.eval tup p -> r
          | Some _ | None -> None )
  | Physical.Project_op (exprs, t) ->
      let src, f = pipeline_stages t in
      ( src,
        fun tn ->
          Option.map
            (fun (tup, n) ->
              (Tuple.of_list (List.map (Scalar.eval tup) exprs), n))
            (f tn) )
  | src -> (src, Option.some)

let rec exec ~hooks db plan : rows =
  hooks.around plan (exec_node ~hooks db plan)

and exec_node ~hooks db plan k =
  match plan with
  | Physical.Const_scan r -> bag_rows (Relation.bag r) k
  | Physical.Seq_scan name -> bag_rows (Relation.bag (Database.find name db)) k
  | Physical.Index_scan { def; access; residual } ->
      let idx = Index.get def (Database.find def.idx_rel db) in
      hooks.observe plan "keys" (Index.distinct_keys idx);
      let matches = Index.probe idx access in
      (match residual with
      | Pred.True -> Seq.iter k matches
      | p -> Seq.iter (fun ((t, _) as x) -> if Pred.eval t p then k x) matches)
  | Physical.Index_join { def; outer_keys; residual; outer; _ } ->
      (* Probe the inner relation's index once per outer row — no build
         phase; the structure is shared via the index cache. *)
      let idx = Index.get def (Database.find def.idx_rel db) in
      hooks.observe plan "keys" (Index.distinct_keys idx);
      exec ~hooks db outer (fun (ltuple, ln) ->
          let key = List.map (fun i -> Tuple.attr ltuple i) outer_keys in
          Relation.Bag.iter
            (fun rtuple rn ->
              let combined = Tuple.concat ltuple rtuple in
              if Pred.eval combined residual then k (combined, ln * rn))
            (Index.probe_point idx key))
  | Physical.Filter (p, t) ->
      exec ~hooks db t (fun ((tuple, _) as x) -> if Pred.eval tuple p then k x)
  | Physical.Project_op (exprs, t) ->
      exec ~hooks db t (fun (tuple, n) ->
          k (Tuple.of_list (List.map (Scalar.eval tuple) exprs), n))
  | Physical.Hash_join { left_keys; right_keys; residual; left; right; _ } ->
      (* Build on the right, probe (pipelined) from the left. *)
      let entries = ref 0 in
      let table =
        build_table right_keys (fun add ->
            exec ~hooks db right (fun row ->
                incr entries;
                add row))
      in
      hooks.observe plan "build" !entries;
      hooks.observe plan "keys" (TH.length table);
      exec ~hooks db left (probe table ~left_keys ~residual k)
  | Physical.Nested_loop (p, l, r) ->
      let right_rows = to_array (exec ~hooks db r) in
      hooks.observe plan "inner" (Array.length right_rows);
      exec ~hooks db l (fun (ltuple, ln) ->
          Array.iter
            (fun (rtuple, rn) ->
              let combined = Tuple.concat ltuple rtuple in
              if Pred.eval combined p then k (combined, ln * rn))
            right_rows)
  | Physical.Cross_product (l, r) ->
      let right_rows = to_array (exec ~hooks db r) in
      hooks.observe plan "inner" (Array.length right_rows);
      exec ~hooks db l (fun (ltuple, ln) ->
          Array.iter
            (fun (rtuple, rn) -> k (Tuple.concat ltuple rtuple, ln * rn))
            right_rows)
  | Physical.Union_all (l, r) ->
      exec ~hooks db l k;
      exec ~hooks db r k
  | Physical.Hash_diff (l, r) ->
      let left_counts = count_table (exec ~hooks db l) in
      let right_counts = count_table (exec ~hooks db r) in
      hooks.observe plan "left-keys" (TH.length left_counts);
      hooks.observe plan "right-keys" (TH.length right_counts);
      TH.iter
        (fun t ln ->
          let rn = Option.value ~default:0 (TH.find_opt right_counts t) in
          if ln > rn then k (t, ln - rn))
        left_counts
  | Physical.Hash_intersect (l, r) ->
      let left_counts = count_table (exec ~hooks db l) in
      let right_counts = count_table (exec ~hooks db r) in
      hooks.observe plan "left-keys" (TH.length left_counts);
      hooks.observe plan "right-keys" (TH.length right_counts);
      TH.iter
        (fun t ln ->
          match TH.find_opt right_counts t with
          | Some rn -> k (t, min ln rn)
          | None -> ())
        left_counts
  | Physical.Hash_distinct t ->
      let seen = TH.create 64 in
      exec ~hooks db t (fun (tuple, _) -> TH.replace seen tuple ());
      hooks.observe plan "distinct" (TH.length seen);
      TH.iter (fun tuple () -> k (tuple, 1)) seen
  | Physical.Hash_aggregate (attrs, aggs, t) ->
      let input_schema = Typecheck.infer_db db (Physical.to_logical t) in
      let groups =
        accumulate_groups input_schema attrs aggs (exec ~hooks db t)
      in
      hooks.observe plan "groups" (TH.length groups);
      group_rows input_schema attrs aggs groups k
  | Physical.Exchange { parts; child } ->
      exec_exchange ~hooks db plan parts child k

and exec_exchange ~hooks db plan parts child k =
  (* The fused child never runs as a standalone stream, so route the
     merged fragment output through its instrumentation hook — its
     EXPLAIN ANALYZE row then shows the rows its fragments produced
     (operators deeper inside a fused σ/π chain still read zero). *)
  let emit outs =
    hooks.around child (fun k -> Array.iter (Array.iter k) outs) k
  in
  (* Profitability feedback for the adaptive planner.  Inputs are
     materialised before [t0], so [wall] covers exactly the Exchange's
     own machinery — partition, pool dispatch, fragments — while [busy]
     is the summed fragment work alone.  [busy - wall] is the time the
     pool saved over running the fragments inline: negative means this
     Exchange should not have been inserted at this input size. *)
  let note ~rows t0 busy_ms =
    let wall_ms = (Trace.now_us () -. t0) /. 1000.0 in
    Planner.Feedback.note ~rows ~gain_ms:(busy_ms -. wall_ms)
  in
  let observe = hooks.observe plan in
  match child with
  | Physical.Hash_join { left_keys; right_keys; residual; left; right; _ } ->
      let lrows = to_array (exec ~hooks db left) in
      let rrows = to_array (exec ~hooks db right) in
      let t0 = Trace.now_us () in
      let lb = bucket_rows parts left_keys lrows in
      let rb = bucket_rows parts right_keys rrows in
      let outs, busy =
        on_pool ~observe ~name:"join-worker"
          ~rows:(fun (lefts, rights) -> List.length lefts + List.length rights)
          (fun (lefts, rights) ->
            let table = build_table right_keys (fun add -> List.iter add rights) in
            let out = ref [] in
            List.iter
              (probe table ~left_keys ~residual (fun row -> out := row :: !out))
              lefts;
            Array.of_list !out)
          (Array.map2 (fun l r -> (l, r)) lb rb)
      in
      note ~rows:(Array.length lrows + Array.length rrows) t0 busy;
      emit outs
  | Physical.Hash_aggregate ((_ :: _ as attrs), aggs, src) ->
      let input_schema = Typecheck.infer_db db (Physical.to_logical src) in
      let rows = to_array (exec ~hooks db src) in
      let t0 = Trace.now_us () in
      let outs, busy =
        on_pool ~observe ~name:"agg-worker" ~rows:List.length
          (fun bucket ->
            accumulate_groups input_schema attrs aggs (fun add ->
                List.iter add bucket)
            |> group_rows input_schema attrs aggs
            |> to_array)
          (bucket_rows parts attrs rows)
      in
      note ~rows:(Array.length rows) t0 busy;
      emit outs
  | Physical.Hash_aggregate ([], aggs, src) ->
      (* Global aggregate: per-fragment partial states, combined on the
         coordinating domain, finalized into the single output tuple
         (one tuple even over the empty input, Definition 3.4). *)
      let input_schema = Typecheck.infer_db db (Physical.to_logical src) in
      let rows = to_array (exec ~hooks db src) in
      let t0 = Trace.now_us () in
      let partials, busy =
        on_pool ~observe ~name:"agg-worker" ~rows:Array.length
          (fun slice ->
            accumulate_groups input_schema [] aggs (fun add ->
                Array.iter add slice))
          (slices parts rows)
      in
      note ~rows:(Array.length rows) t0 busy;
      let groups = TH.create 1 in
      Array.iter
        (TH.iter (fun key states ->
             TH.replace groups key
               (match TH.find_opt groups key with
               | Some acc -> Array.map2 combine_state acc states
               | None -> states)))
        partials;
      hooks.around child (group_rows input_schema [] aggs groups) k
  | Physical.Filter _ | Physical.Project_op _ ->
      let src, f = pipeline_stages child in
      let rows = to_array (exec ~hooks db src) in
      let t0 = Trace.now_us () in
      let outs, busy =
        on_pool ~observe ~name:"scan-worker" ~rows:Array.length
          (fun slice ->
            let out = ref [] in
            Array.iter
              (fun tn ->
                match f tn with
                | Some r -> out := r :: !out
                | None -> ())
              slice;
            Array.of_list (List.rev !out))
          (slices parts rows)
      in
      note ~rows:(Array.length rows) t0 busy;
      emit outs
  | child ->
      (* The planner only wraps the shapes above; anything else is
         executed sequentially — Exchange is then a no-op. *)
      exec ~hooks db child k

let materialize db plan (rows : rows) =
  let schema = Typecheck.infer_db db (Physical.to_logical plan) in
  let bag = ref Relation.Bag.empty in
  rows (fun (t, n) -> bag := Relation.Bag.add ~count:n t !bag);
  Relation.of_bag_unchecked schema !bag

let iter db plan k = exec ~hooks:(with_progress plan no_hooks) db plan k
let run db plan = materialize db plan (iter db plan)

(* Count with [tick] every counted-tuple element every operator emits,
   regardless of which operator it is. *)
let count_moved tick db plan =
  let moved = ref 0 in
  let hooks =
    {
      no_hooks with
      around =
        (fun _ rows k ->
          rows (fun x ->
              moved := !moved + tick x;
              k x));
    }
  in
  exec ~hooks db plan ignore;
  !moved

let tuples_moved = count_moved (fun _ -> 1)
let cells_moved = count_moved (fun (t, _) -> Tuple.arity t)
let run_expr db e = run db (Planner.plan db e)

(* --- instrumented execution ------------------------------------------- *)

type op_metrics = {
  out_elems : int;
  out_rows : int;
  out_cells : int;
  wall_ms : float;
  details : (string * int) list;
}

type report = {
  node : Physical.t;
  estimated_rows : float;
  actual : op_metrics;
  q_error : float;
  inputs : report list;
}

type analysis = {
  result : Relation.t;
  total_ms : float;
  root : report;
  totals : Metrics.t;
}

(* Per-node accounting keyed by physical identity: the planner allocates
   a fresh node per tree position, so [==] distinguishes structurally
   equal siblings.  (If a caller builds a plan with a physically shared
   subtree, its uses merge into one record — the report then shows the
   combined figures at each occurrence.) *)
let op_table plan =
  let table = ref [] in
  let rec register p =
    table := (p, Metrics.make_op ()) :: !table;
    List.iter register (Physical.children p)
  in
  register plan;
  let entries = !table in
  fun p -> snd (List.find (fun (q, _) -> q == p) entries)

(* Wrap an operator's stream so its run is timed and every element it
   emits is counted — element, row and cell totals are exact.  The time
   is inclusive of children (their runs happen inside this one) and
   exclusive of consumers.  Reading the clock around every consumer call
   would cost more than the work it measures, so one call in
   [sample_every] (a power of two) is timed and the consumers' share
   scaled up from those samples: at one in 16 the clock reads alone
   added about 0.05× of a plain run to EXPLAIN ANALYZE at 20k retail
   orders.  [on_end] fires when the stream has been drained. *)
let sample_every = 64

let instrument ?on_end (m : Metrics.op) (rows : rows) : rows =
 fun k ->
  let t0 = Unix.gettimeofday () in
  let elems = ref 0 and nrows = ref 0 and cells = ref 0 in
  let sampled = ref 0 and sampled_s = ref 0.0 in
  rows (fun ((t, n) as x) ->
      nrows := !nrows + n;
      cells := !cells + Tuple.arity t;
      if !elems land (sample_every - 1) = 0 then begin
        let s = Unix.gettimeofday () in
        k x;
        sampled_s := !sampled_s +. (Unix.gettimeofday () -. s);
        incr sampled
      end
      else k x;
      incr elems);
  let consumers_s =
    if !sampled = 0 then 0.0
    else !sampled_s *. float_of_int !elems /. float_of_int !sampled
  in
  let own_s = Unix.gettimeofday () -. t0 -. consumers_s in
  Metrics.add m.Metrics.elems !elems;
  Metrics.add m.Metrics.rows !nrows;
  Metrics.add m.Metrics.cells !cells;
  Metrics.add_ms m.Metrics.wall (1000.0 *. Float.max 0.0 own_s);
  Option.iter (fun f -> f ()) on_end

(* A traced operator's span runs from the start of its run to its
   end — its lifetime in the pipeline, which contains the lifetimes of
   its children, so viewers nest the spans correctly.  The span links
   to the operator's exact counters: emitted rows/elements, the
   measured wall time, and the gauges. *)
let op_span_attrs p (m : Metrics.op) =
  ("label", Trace.Str (Physical.label p))
  :: ("rows", Trace.Int (Metrics.count m.Metrics.rows))
  :: ("elems", Trace.Int (Metrics.count m.Metrics.elems))
  :: ("wall_ms", Trace.Float (Metrics.elapsed_ms m.Metrics.wall))
  :: List.map (fun (k, v) -> (k, Trace.Int v)) (Metrics.details m)

let run_instrumented db plan =
  let find = op_table plan in
  let traced = Trace.enabled () in
  let hooks =
    {
      around =
        (fun p rows ->
          let m = find p in
          if traced then fun k ->
            let start_us = Trace.now_us () in
            let on_end () =
              Trace.complete (Physical.kind p) ~start_us
                ~dur_us:(Trace.now_us () -. start_us)
                ~attrs:(op_span_attrs p m)
            in
            instrument ~on_end m rows k
          else instrument m rows);
      observe = (fun p key v -> Metrics.set_detail (find p) key v);
    }
  in
  let hooks = with_progress plan hooks in
  let total = Metrics.make_timer () in
  let result =
    Metrics.record total (fun () ->
        Trace.with_span "execute"
          ~attrs:[ ("operators", Trace.Int (Physical.size plan)) ]
          (fun () ->
            let r = materialize db plan (exec ~hooks db plan) in
            Trace.add_attr "rows" (Trace.Int (Relation.cardinal r));
            r))
  in
  let stats = Stats.env_of_database db in
  let schemas = Typecheck.env_of_database db in
  let rec report_of p =
    let m = find p in
    let actual =
      {
        out_elems = Metrics.count m.Metrics.elems;
        out_rows = Metrics.count m.Metrics.rows;
        out_cells = Metrics.count m.Metrics.cells;
        wall_ms = Metrics.elapsed_ms m.Metrics.wall;
        details = Metrics.details m;
      }
    in
    let estimated_rows =
      Cost.estimate_cardinality ~stats ~schemas (Physical.to_logical p)
    in
    {
      node = p;
      estimated_rows;
      actual;
      q_error = Cost.q_error ~estimated:estimated_rows ~actual:actual.out_rows;
      inputs = List.map report_of (Physical.children p);
    }
  in
  let root = report_of plan in
  let totals = Metrics.create () in
  let rec accumulate r =
    Metrics.add (Metrics.counter totals "tuples-moved") r.actual.out_elems;
    Metrics.add (Metrics.counter totals "cells-moved") r.actual.out_cells;
    List.iter accumulate r.inputs
  in
  accumulate root;
  Metrics.add (Metrics.counter totals "rows-out") root.actual.out_rows;
  Metrics.add (Metrics.counter totals "operators") (Physical.size plan);
  Metrics.add_ms (Metrics.timer totals "wall") (Metrics.elapsed_ms total);
  (* Fold this execution into the cumulative per-operator registry
     that [sys.operators] materializes.  Wall time is inclusive of
     children, same convention as the EXPLAIN ANALYZE report rows. *)
  if Mxra_obs.Stmt_stats.enabled () then begin
    let rec feed r =
      Mxra_obs.Op_stats.record ~op:(Physical.kind r.node)
        ~elems:r.actual.out_elems ~rows:r.actual.out_rows
        ~cells:r.actual.out_cells ~wall_ms:r.actual.wall_ms;
      List.iter feed r.inputs
    in
    feed root
  end;
  { result; total_ms = Metrics.elapsed_ms total; root; totals }

let explain_analyze ?jobs db e = run_instrumented db (Planner.plan ?jobs db e)

(* --- report rendering --------------------------------------------------- *)

let pp_details ppf details =
  List.iter (fun (k, v) -> Format.fprintf ppf " %s=%d" k v) details

let annot_table root =
  let entries = ref [] in
  let rec collect r =
    entries := (r.node, r) :: !entries;
    List.iter collect r.inputs
  in
  collect root;
  let entries = !entries in
  fun p ->
    match List.find_opt (fun (q, _) -> q == p) entries with
    | Some (_, r) -> r
    | None -> invalid_arg "Exec.annot_table: node not in report"

let pp_analysis ppf a =
  let lookup = annot_table a.root in
  let annot p =
    let r = lookup p in
    Format.asprintf "(est=%.0f act=%d q=%.2f time=%.2fms%a)" r.estimated_rows
      r.actual.out_rows r.q_error r.actual.wall_ms pp_details
      r.actual.details
  in
  Format.fprintf ppf "@[<v>%a@]total: %.2f ms, %d rows"
    (Physical.pp_annotated ~annot)
    a.root.node a.total_ms
    (Relation.cardinal a.result)

let analysis_to_string a = Format.asprintf "%a" pp_analysis a

let pp_estimates db ppf plan =
  let stats = Stats.env_of_database db in
  let schemas = Typecheck.env_of_database db in
  let annot p =
    Format.asprintf "(est=%.0f)"
      (Cost.estimate_cardinality ~stats ~schemas (Physical.to_logical p))
  in
  Physical.pp_annotated ~annot ppf plan

let explain ?jobs db e =
  Format.asprintf "%a" (pp_estimates db) (Planner.plan ?jobs db e)
