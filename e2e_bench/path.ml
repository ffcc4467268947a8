(* The library calls a [bagdb run] / [bagdb sql] user pays for, in the
   order [bin/bagdb.ml] makes them ([run_query], [scheduler_batch]), each
   wrapped in a span named after the layer it enters.

     read:  Xra.Parser | Sql_parser + Translate        frontend
            Qid.mint, Ash.register                     obs
            Syscat.attach_for                          obs
            Optimizer.optimize_db                      optimizer
            Planner.plan                               planner
            Typecheck.env_of_database                  typecheck
            Stats + Cost.estimate_cardinality,
              Ash.set_estimate                         obs.ash_estimate
            Ash.with_slot (Exec.run)                   exec
            Stmt_stats.record, Ash.finish              obs
     write: Xra.Parser, Transaction.make               frontend
            Scheduler.run (SI)                         scheduler
            Store.absorb_batch (one sync per round)    store

   Type checking proper happens inside the optimizer and the planner,
   which is where [bagdb] lets it happen; the [typecheck] span covers the
   one call into that layer [bagdb] makes itself. *)

open Mxra_relational
open Mxra_core
module Obs = Mxra_obs
module Syscat = Mxra_engine.Syscat
module Stats = Mxra_engine.Stats
module Cost = Mxra_engine.Cost
module Planner = Mxra_engine.Planner
module Exec = Mxra_engine.Exec
module Physical = Mxra_engine.Physical
module Optimizer = Mxra_optimizer.Optimizer
module Parser = Mxra_xra.Parser
module Sql_parser = Mxra_sql.Sql_parser
module Translate = Mxra_sql.Translate
module Scheduler = Mxra_concurrency.Scheduler
module Store = Mxra_storage.Store

let span = Spans.with_span

type lang = Xra | Sql

type read = {
  label : string;  (** statement kind, for per-kind figures *)
  lang : lang;
  text : string;
}

type read_result = {
  expr : Expr.t;  (** the translated, unoptimised statement *)
  db : Database.t;  (** the database it ran against *)
  plan : Physical.t;
  result : Relation.t;
}

let parse db r =
  match r.lang with
  | Xra -> (
      match Parser.command_of_string r.text with
      | Parser.Cmd_statement (Statement.Query e) -> e
      | _ -> failwith ("not a query: " ^ r.text))
  | Sql -> (
      match Translate.translate (Syscat.env db) (Sql_parser.parse r.text) with
      | Translate.Query e -> e
      | _ -> failwith ("not a query: " ^ r.text))

(* One statement, from text to materialised result.  The Exchange floor
   is passed explicitly, which turns off the planner's run-time feedback:
   the plan is then a function of the data and [jobs] alone. *)
let run_read ~jobs db r =
  span r.label @@ fun () ->
  let e = span "frontend" (fun () -> parse db r) in
  let lang = match r.lang with Xra -> "xra" | Sql -> "sql" in
  let qid, text, slot =
    span "obs" (fun () ->
        let qid = Obs.Qid.mint () in
        let text = Expr.to_string e in
        (qid, text, Obs.Ash.register ~lang ~text ~qid ()))
  in
  Fun.protect ~finally:(fun () -> span "obs" (fun () -> Obs.Ash.finish slot))
  @@ fun () ->
  Obs.Trace.with_context [ (Obs.Qid.attr_key, Obs.Trace.Str qid) ] @@ fun () ->
  let db = span "obs" (fun () -> Syscat.attach_for db e) in
  let optimized = span "optimizer" (fun () -> Optimizer.optimize_db db e) in
  let plan =
    span "planner" (fun () ->
        Planner.plan ~jobs ~cores:jobs
          ~parallel_threshold:Planner.default_parallel_threshold db optimized)
  in
  if Obs.Ash.live slot then begin
    let schemas = span "typecheck" (fun () -> Typecheck.env_of_database db) in
    span "obs.ash_estimate" (fun () ->
        Obs.Ash.set_estimate slot
          (Cost.estimate_cardinality ~stats:(Stats.env_of_database db) ~schemas
             optimized))
  end;
  let result =
    Obs.Ash.with_slot slot @@ fun () ->
    let t0 = Spans.now () in
    let result = span "exec" (fun () -> Exec.run db plan) in
    let wall_ms = (Spans.now () -. t0) *. 1000.0 in
    span "obs" (fun () ->
        Obs.Stmt_stats.record ~lang ~qid ~rows:(Relation.cardinal result)
          ~wall_ms text);
    result
  in
  { expr = e; db; plan; result }

type store = { vfs : Mxra_storage.Vfs.t; handle : Store.t }

(* One write round: transaction texts in, group-committed on return. *)
let run_round ~store ~seed db texts =
  span "round" @@ fun () ->
  let txns =
    span "frontend" (fun () ->
        List.mapi
          (fun i text ->
            match Parser.command_of_string text with
            | Parser.Cmd_transaction p ->
                Transaction.make ~name:(Printf.sprintf "txn-%d" (i + 1)) p
            | _ -> failwith ("not a transaction: " ^ text))
          texts)
  in
  let r =
    span "scheduler" (fun () ->
        Scheduler.run ~isolation:Scheduler.Si ~seed db txns)
  in
  span "store" (fun () ->
      let arr = Array.of_list txns in
      let qarr = Array.of_list r.Scheduler.query_ids in
      Store.absorb_batch store.handle
        ~qids:(List.map (Array.get qarr) r.Scheduler.commit_order)
        (List.map (Array.get arr) r.Scheduler.commit_order)
        r.Scheduler.final);
  (txns, r)
