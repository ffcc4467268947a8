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

(* The output rows of accumulated groups.  Definition 3.4: with an empty
   grouping list the result is one tuple even over the empty input. *)
let group_rows input_schema attrs aggs groups =
  if attrs = [] && TH.length groups = 0 then
    TH.add groups Tuple.unit (initial_states input_schema aggs);
  Seq.map
    (fun (key, states) ->
      let values = Array.to_list (Array.map finalize_state states) in
      (Tuple.concat key (Tuple.of_list values), 1))
    (TH.to_seq groups)

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

(* --- chunked streams --------------------------------------------------- *)

(* The executor's unit of data flow is a [chunk]: a non-empty array of
   counted tuples.  Operators process a chunk in a tight loop, so the
   per-element cost of a lazy [Seq] — one closure and one [Cons] cell
   per tuple — is paid once per chunk instead.  On the spine of a
   pipeline chunks hold at most [chunk_size] elements, but operators
   that naturally produce bigger batches (a probe chunk fanning out
   against a hash table, an Exchange fragment's whole output) may emit
   longer ones: the only invariant is that chunks are non-empty.

   A chunk stream is consumed at most once per materialisation; the
   probe-side operators reuse one scratch buffer across chunks, so
   interleaving two traversals of the same stream is not supported
   (materialise instead). *)

type chunk = (Tuple.t * int) array

(* 255 elements + header = 256 words, the largest array the OCaml
   runtime still allocates on the minor heap (Max_young_wosize).  Bigger
   chunks go straight to the major heap, every store into them pays the
   slow write-barrier path, and the tuples they hold get promoted at the
   next minor collection — measured on E15 as twice the major-heap
   allocation and a ~20% slowdown at 1024. *)
let default_chunk_size = 255
let chunk_ref = ref default_chunk_size
let set_chunk_size n = chunk_ref := max 1 n
let chunk_size () = !chunk_ref

let () =
  (* MXRA_CHUNK_SIZE=1 degrades every chunk to a single element — the CI
     leg that drags all tests across the chunk-boundary edge cases. *)
  match Option.bind (Sys.getenv_opt "MXRA_CHUNK_SIZE") int_of_string_opt with
  | Some n when n >= 1 -> chunk_ref := n
  | Some _ | None -> ()

(* A growable row buffer (OCaml 5.1 has no Stdlib.Dynarray yet): the
   expanding operators fill one of these per input chunk and flush it as
   an output chunk, reusing the backing store across chunks. *)
module Vec = struct
  type t = { mutable arr : chunk; mutable len : int }

  let dummy = (Tuple.unit, 0)
  let create n = { arr = Array.make (max 1 n) dummy; len = 0 }

  let push v x =
    (if v.len = Array.length v.arr then begin
       let bigger = Array.make (2 * v.len) dummy in
       Array.blit v.arr 0 bigger 0 v.len;
       v.arr <- bigger
     end);
    v.arr.(v.len) <- x;
    v.len <- v.len + 1

  (* Contents as a chunk; the vector resets for reuse.  An exactly-full
     vector hands over its backing array instead of copying. *)
  let flush v =
    let c =
      if v.len = Array.length v.arr then begin
        let a = v.arr in
        v.arr <- Array.make (Array.length a) dummy;
        a
      end
      else Array.sub v.arr 0 v.len
    in
    v.len <- 0;
    c
end

(* Cut a counted-tuple sequence into chunks of [size] (the last may be
   shorter), pulling lazily: used above the table-driven operators whose
   outputs are hashtable traversals. *)
let chunks_of_seq size s =
  let rec next s () =
    match s () with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (x, rest) ->
        let buf = Array.make size x in
        let n = ref 1 in
        let rec fill s =
          if !n = size then s
          else
            match s () with
            | Seq.Nil -> Seq.empty
            | Seq.Cons (x, rest) ->
                buf.(!n) <- x;
                incr n;
                fill rest
        in
        let rest = fill rest in
        let c = if !n = size then buf else Array.sub buf 0 !n in
        Seq.Cons (c, next rest)
  in
  next s

(* Scans chunk lazily: materialising a scan's chunk list up front would
   keep every chunk live for the whole query, promoting its tuples out
   of the nursery at each minor collection (measured on E15 as double
   the promoted words). *)
let chunks_of_bag size bag =
  chunks_of_seq size (Relation.Bag.to_counted_seq bag)

let concat_chunks cs = Array.concat (List.of_seq cs)

(* The expanding operators' output side (joins, products): [each emit
   row] emits any number of output rows per input row, re-chunked at
   [size] through one reused buffer so a probe chunk fanning out stays
   nursery-sized. *)
let expand_chunks size each chunks =
  let out = Vec.create size in
  let expand c =
    let outs = ref [] in
    let emit x =
      Vec.push out x;
      if out.Vec.len >= size then outs := Vec.flush out :: !outs
    in
    Array.iter (each emit) c;
    if out.Vec.len > 0 then outs := Vec.flush out :: !outs;
    List.to_seq (List.rev !outs)
  in
  Seq.concat_map expand chunks

(* --- plan execution ---------------------------------------------------- *)

(* Collapse a chunk stream into a per-tuple count table. *)
let count_table chunks =
  let table = TH.create 64 in
  Seq.iter
    (Array.iter (fun (t, n) ->
         match TH.find_opt table t with
         | Some c -> TH.replace table t (c + n)
         | None -> TH.add table t n))
    chunks;
  table

(* Instrumentation hooks.  [around node thunk] wraps the construction of
   an operator's output chunk stream (eager work — hash builds, sorts,
   scan chunking — happens inside the thunk) and may wrap the stream
   itself, seeing every chunk the operator emits; summing the chunk
   contents over operators measures the tuple traffic of the plan, and
   weighting by arity measures the data volume.  [observe node key
   value] reports an operator-specific gauge (hash-build size, group
   count, materialised inner cardinality). *)
type hooks = {
  around : Physical.t -> (unit -> chunk Seq.t) -> chunk Seq.t;
  observe : Physical.t -> string -> int -> unit;
}

let no_hooks = { around = (fun _ f -> f ()); observe = (fun _ _ _ -> ()) }

(* Live-progress hooks, composed over whatever instrumentation is
   already in place: when a statement registered itself in the activity
   registry ({!Mxra_obs.Ash.with_slot} around the execution), every
   chunk any operator emits stamps that operator as the one currently
   producing, and chunks leaving the plan [root] advance the
   statement's row/chunk counters — sys.progress moves while the query
   runs, at chunk granularity.  With no ambient slot (registry off, or
   a bare [run]) the hooks are returned untouched: the hot path pays
   nothing. *)
let with_progress root base =
  match Ash.current () with
  | None -> base
  | Some slot ->
      {
        base with
        around =
          (fun p thunk ->
            let s = base.around p thunk in
            let kind = Physical.kind p in
            if p == root then
              Seq.map
                (fun c ->
                  Ash.set_operator slot kind;
                  Ash.advance slot
                    ~rows:(Array.fold_left (fun acc (_, n) -> acc + n) 0 c);
                  c)
                s
            else
              Seq.map
                (fun c ->
                  Ash.set_operator slot kind;
                  c)
                s);
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

let rec exec ~hooks ~size db plan : chunk Seq.t =
  hooks.around plan (fun () -> exec_node ~hooks ~size db plan)

and exec_node ~hooks ~size db plan : chunk Seq.t =
  match plan with
  | Physical.Const_scan r -> chunks_of_bag size (Relation.bag r)
  | Physical.Seq_scan name ->
      chunks_of_bag size (Relation.bag (Database.find name db))
  | Physical.Index_scan { def; access; residual } ->
      let idx = Index.get def (Database.find def.idx_rel db) in
      hooks.observe plan "keys" (Index.distinct_keys idx);
      let matches = Index.probe idx access in
      let matches =
        match residual with
        | Pred.True -> matches
        | p -> Seq.filter (fun (t, _) -> Pred.eval t p) matches
      in
      chunks_of_seq size matches
  | Physical.Index_join { def; outer_keys; residual; outer; _ } ->
      (* Probe the inner relation's index once per outer row — no build
         phase; the structure is shared via the index cache. *)
      let idx = Index.get def (Database.find def.idx_rel db) in
      hooks.observe plan "keys" (Index.distinct_keys idx);
      expand_chunks size
        (fun emit (ltuple, ln) ->
          let key = List.map (fun i -> Tuple.attr ltuple i) outer_keys in
          Relation.Bag.iter
            (fun rtuple rn ->
              let combined = Tuple.concat ltuple rtuple in
              if Pred.eval combined residual then emit (combined, ln * rn))
            (Index.probe_point idx key))
        (exec ~hooks ~size db outer)
  | Physical.Filter (p, t) ->
      Seq.filter_map
        (fun c ->
          let n = Array.length c in
          let out = Array.make n c.(0) in
          let k = ref 0 in
          for i = 0 to n - 1 do
            let (tuple, _) as x = c.(i) in
            if Pred.eval tuple p then begin
              out.(!k) <- x;
              incr k
            end
          done;
          if !k = 0 then None
          else if !k = n then Some out
          else Some (Array.sub out 0 !k))
        (exec ~hooks ~size db t)
  | Physical.Project_op (exprs, t) ->
      let image tuple = Tuple.of_list (List.map (Scalar.eval tuple) exprs) in
      Seq.map
        (fun c -> Array.map (fun (tuple, n) -> (image tuple, n)) c)
        (exec ~hooks ~size db t)
  | Physical.Hash_join { left_keys; right_keys; residual; left; right; _ } ->
      (* Build on the right, probe (pipelined, chunk at a time) from the
         left. *)
      let entries = ref 0 in
      let table =
        build_table right_keys (fun add ->
            Seq.iter
              (Array.iter (fun row ->
                   incr entries;
                   add row))
              (exec ~hooks ~size db right))
      in
      hooks.observe plan "build" !entries;
      hooks.observe plan "keys" (TH.length table);
      expand_chunks size
        (probe table ~left_keys ~residual)
        (exec ~hooks ~size db left)
  | Physical.Nested_loop (p, l, r) ->
      let right_rows = concat_chunks (exec ~hooks ~size db r) in
      hooks.observe plan "inner" (Array.length right_rows);
      expand_chunks size
        (fun emit (ltuple, ln) ->
          Array.iter
            (fun (rtuple, rn) ->
              let combined = Tuple.concat ltuple rtuple in
              if Pred.eval combined p then emit (combined, ln * rn))
            right_rows)
        (exec ~hooks ~size db l)
  | Physical.Cross_product (l, r) ->
      let right_rows = concat_chunks (exec ~hooks ~size db r) in
      hooks.observe plan "inner" (Array.length right_rows);
      expand_chunks size
        (fun emit (ltuple, ln) ->
          Array.iter
            (fun (rtuple, rn) -> emit (Tuple.concat ltuple rtuple, ln * rn))
            right_rows)
        (exec ~hooks ~size db l)
  | Physical.Union_all (l, r) ->
      Seq.append (exec ~hooks ~size db l) (exec ~hooks ~size db r)
  | Physical.Hash_diff (l, r) ->
      let left_counts = count_table (exec ~hooks ~size db l) in
      let right_counts = count_table (exec ~hooks ~size db r) in
      hooks.observe plan "left-keys" (TH.length left_counts);
      hooks.observe plan "right-keys" (TH.length right_counts);
      let monus (t, ln) =
        let rn = Option.value ~default:0 (TH.find_opt right_counts t) in
        if ln > rn then Some (t, ln - rn) else None
      in
      chunks_of_seq size (Seq.filter_map monus (TH.to_seq left_counts))
  | Physical.Hash_intersect (l, r) ->
      let left_counts = count_table (exec ~hooks ~size db l) in
      let right_counts = count_table (exec ~hooks ~size db r) in
      hooks.observe plan "left-keys" (TH.length left_counts);
      hooks.observe plan "right-keys" (TH.length right_counts);
      let pointwise_min (t, ln) =
        match TH.find_opt right_counts t with
        | Some rn -> Some (t, min ln rn)
        | None -> None
      in
      chunks_of_seq size (Seq.filter_map pointwise_min (TH.to_seq left_counts))
  | Physical.Hash_distinct t ->
      let seen = TH.create 64 in
      Seq.iter
        (Array.iter (fun (tuple, _) -> TH.replace seen tuple ()))
        (exec ~hooks ~size db t);
      hooks.observe plan "distinct" (TH.length seen);
      chunks_of_seq size (Seq.map (fun (tuple, ()) -> (tuple, 1)) (TH.to_seq seen))
  | Physical.Hash_aggregate (attrs, aggs, t) ->
      let input_schema = Typecheck.infer_db db (Physical.to_logical t) in
      let groups =
        accumulate_groups input_schema attrs aggs (fun add ->
            Seq.iter (Array.iter add) (exec ~hooks ~size db t))
      in
      let rows = group_rows input_schema attrs aggs groups in
      hooks.observe plan "groups" (TH.length groups);
      chunks_of_seq size rows
  | Physical.Exchange { parts; child } ->
      exec_exchange ~hooks ~size db plan parts child

and exec_exchange ~hooks ~size db plan parts child =
  (* The fused child never runs as a standalone stream, so route the
     merged fragment output through its instrumentation hook — its
     EXPLAIN ANALYZE row then shows the rows its fragments produced
     (operators deeper inside a fused σ/π chain still read zero).  Each
     fragment's whole output is one chunk. *)
  let emit outs =
    hooks.around child (fun () ->
        Seq.filter (fun c -> Array.length c > 0) (Array.to_seq outs))
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
      let lrows = concat_chunks (exec ~hooks ~size db left) in
      let rrows = concat_chunks (exec ~hooks ~size db right) in
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
      let rows = concat_chunks (exec ~hooks ~size db src) in
      let t0 = Trace.now_us () in
      let outs, busy =
        on_pool ~observe ~name:"agg-worker" ~rows:List.length
          (fun bucket ->
            accumulate_groups input_schema attrs aggs (fun add ->
                List.iter add bucket)
            |> group_rows input_schema attrs aggs
            |> Array.of_seq)
          (bucket_rows parts attrs rows)
      in
      note ~rows:(Array.length rows) t0 busy;
      emit outs
  | Physical.Hash_aggregate ([], aggs, src) ->
      (* Global aggregate: per-fragment partial states, combined on the
         coordinating domain, finalized into the single output tuple
         (one tuple even over the empty input, Definition 3.4). *)
      let input_schema = Typecheck.infer_db db (Physical.to_logical src) in
      let rows = concat_chunks (exec ~hooks ~size db src) in
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
      hooks.around child (fun () ->
          Seq.return (Array.of_seq (group_rows input_schema [] aggs groups)))
  | Physical.Filter _ | Physical.Project_op _ ->
      let src, f = pipeline_stages child in
      let rows = concat_chunks (exec ~hooks ~size db src) in
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
      exec ~hooks ~size db child

let materialize db plan chunks =
  let schema = Typecheck.infer_db db (Physical.to_logical plan) in
  let bag =
    Seq.fold_left
      (fun bag c ->
        Array.fold_left
          (fun bag (t, n) -> Relation.Bag.add ~count:n t bag)
          bag c)
      Relation.Bag.empty chunks
  in
  Relation.of_bag_unchecked schema bag

let resolve_size = function Some n -> max 1 n | None -> !chunk_ref

let run ?chunk_size db plan =
  let size = resolve_size chunk_size in
  materialize db plan (exec ~hooks:(with_progress plan no_hooks) ~size db plan)

let stream ?chunk_size db plan =
  let size = resolve_size chunk_size in
  Seq.concat_map Array.to_seq
    (exec ~hooks:(with_progress plan no_hooks) ~size db plan)

(* Hooks that invoke [tick] with every counted-tuple element every
   operator emits, regardless of which operator it is. *)
let tick_hooks tick =
  { no_hooks with
    around = (fun _ f -> Seq.map (fun c -> Array.iter tick c; c) (f ())) }

let tuples_moved db plan =
  let moved = ref 0 in
  let s =
    exec ~hooks:(tick_hooks (fun _ -> incr moved)) ~size:!chunk_ref db plan
  in
  Seq.iter (fun _ -> ()) s;
  !moved

let cells_moved db plan =
  let moved = ref 0 in
  let s =
    exec
      ~hooks:(tick_hooks (fun (t, _) -> moved := !moved + Tuple.arity t))
      ~size:!chunk_ref db plan
  in
  Seq.iter (fun _ -> ()) s;
  !moved

let run_expr ?chunk_size db e = run ?chunk_size db (Planner.plan db e)

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

(* Wrap a chunk stream so each pull is timed (inclusive of child pulls,
   as in EXPLAIN ANALYZE's actual time) and each chunk's contents are
   counted — element, row and cell totals are identical to what the
   tuple-at-a-time engine reported, only the accounting granularity
   changed.  [on_end] fires once, at the first exhaustion. *)
let instrument_stream ?on_end (m : Metrics.op) s =
  let ended = ref false in
  let rec go s () =
    match Metrics.record m.Metrics.wall s with
    | Seq.Nil ->
        (match on_end with
        | Some f when not !ended ->
            ended := true;
            f ()
        | Some _ | None -> ());
        Seq.Nil
    | Seq.Cons (c, rest) ->
        Array.iter
          (fun (t, n) ->
            Metrics.incr m.Metrics.elems;
            Metrics.add m.Metrics.rows n;
            Metrics.add m.Metrics.cells (Tuple.arity t))
          c;
        Seq.Cons (c, go rest)
  in
  go s

(* A traced operator's span runs from stream construction to stream
   exhaustion — its lifetime in the pipeline, which in a lazy engine
   contains the lifetimes of its children, so viewers nest the spans
   correctly.  The span links to the operator's exact counters: emitted
   rows/elements, the measured inclusive wall time, and the gauges. *)
let op_span_attrs p (m : Metrics.op) =
  ("label", Trace.Str (Physical.label p))
  :: ("rows", Trace.Int (Metrics.count m.Metrics.rows))
  :: ("elems", Trace.Int (Metrics.count m.Metrics.elems))
  :: ("wall_ms", Trace.Float (Metrics.elapsed_ms m.Metrics.wall))
  :: List.map (fun (k, v) -> (k, Trace.Int v)) (Metrics.details m)

let run_instrumented ?chunk_size db plan =
  let size = resolve_size chunk_size in
  let find = op_table plan in
  let traced = Trace.enabled () in
  let hooks =
    {
      around =
        (fun p thunk ->
          let m = find p in
          if traced then begin
            let start_us = Trace.now_us () in
            let on_end () =
              Trace.complete (Physical.kind p) ~start_us
                ~dur_us:(Trace.now_us () -. start_us)
                ~attrs:(op_span_attrs p m)
            in
            instrument_stream ~on_end m (Metrics.record m.Metrics.wall thunk)
          end
          else instrument_stream m (Metrics.record m.Metrics.wall thunk));
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
            let r = materialize db plan (exec ~hooks ~size db plan) in
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

let explain_analyze ?chunk_size ?jobs db e =
  run_instrumented ?chunk_size db (Planner.plan ?jobs db e)

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
