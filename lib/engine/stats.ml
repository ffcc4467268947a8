open Mxra_relational

type column = {
  distinct : int;
  min_value : Value.t option;
  max_value : Value.t option;
  cumulative : (float * int) array;
}

type t = {
  cardinality : int;
  support : int;
  columns : column array;
}

(* A per-column table of value counts.  Equality and hash agree with
   [Value.compare v w = 0]: [Float.equal] and [Hashtbl.hash] both identify
   [0.0] with [-0.0] and one [nan] with another.  Unlike [Value.hash],
   hashing allocates no tuple. *)
module VTbl = Hashtbl.Make (struct
  type t = Value.t

  let equal v w =
    match (v, w) with
    | Value.Int a, Value.Int b -> Int.equal a b
    | Float a, Float b -> Float.equal a b
    | Str a, Str b -> String.equal a b
    | Bool a, Bool b -> Bool.equal a b
    | (Int _ | Float _ | Str _ | Bool _), _ -> false

  let hash = function
    | Value.Int n -> Hashtbl.hash n
    | Float f -> Hashtbl.hash f
    | Str s -> Hashtbl.hash s
    | Bool b -> Bool.to_int b
end)

(* One pass over the bag.  The bag is ordered by its tuples, which compare
   attribute 1 first, so attribute 1 arrives sorted and its equal values
   are adjacent: its value counts are runs.  Every other attribute counts
   its values in a hash table and sorts the distinct ones once by
   [Value.compare].  A column's first and last sorted values are its
   extrema, and for numeric columns the running sum of the sorted counts
   is the cumulative histogram. *)
let of_relation r =
  let schema = Relation.schema r in
  let arity = Schema.arity schema in
  let tables = Array.init (max 0 (arity - 1)) (fun _ -> VTbl.create 256) in
  let runs = ref [] in
  let cardinality = ref 0 and support = ref 0 in
  Relation.Bag.fold
    (fun tuple count () ->
      cardinality := !cardinality + count;
      incr support;
      if arity > 0 then begin
        let v = Tuple.attr tuple 1 in
        match !runs with
        | (w, n) :: _ when Value.compare v w = 0 -> n := !n + count
        | _ -> runs := (v, ref count) :: !runs
      end;
      for i = 2 to arity do
        let v = Tuple.attr tuple i in
        match VTbl.find tables.(i - 2) v with
        | n -> n := !n + count
        | exception Not_found -> VTbl.add tables.(i - 2) v (ref count)
      done)
    (Relation.bag r) ();
  let sorted i =
    if i = 0 then Array.of_list (List.rev !runs)
    else begin
      let values = Array.of_seq (VTbl.to_seq tables.(i - 1)) in
      Array.sort (fun (v, _) (w, _) -> Value.compare v w) values;
      values
    end
  in
  let column_of i numeric =
    let values = sorted i in
    let n = Array.length values in
    let cumulative =
      if not numeric then [||]
      else begin
        let running = ref 0 in
        Array.map
          (fun (v, c) ->
            running := !running + !c;
            (Value.as_float v, !running))
          values
      end
    in
    {
      distinct = n;
      min_value = (if n = 0 then None else Some (fst values.(0)));
      max_value = (if n = 0 then None else Some (fst values.(n - 1)));
      cumulative;
    }
  in
  {
    cardinality = !cardinality;
    support = !support;
    columns =
      Array.of_list
        (List.mapi (fun i d -> column_of i (Domain.is_numeric d))
           (Schema.domains schema));
  }

let column t i =
  if i < 1 || i > Array.length t.columns then
    invalid_arg (Printf.sprintf "Stats.column: index %%%d out of range" i)
  else t.columns.(i - 1)

(* Distinct composite keys over a column set: the per-column distinct
   counts multiplied (independence), capped by the support — a key set
   can never distinguish more than the distinct tuples do. *)
let distinct_keys t cols =
  match cols with
  | [] -> invalid_arg "Stats.distinct_keys: empty column list"
  | _ ->
      let prod =
        List.fold_left
          (fun acc i -> acc *. float_of_int (column t i).distinct)
          1.0 cols
      in
      int_of_float (Float.max 1.0 (Float.min (float_of_int t.support) prod))

let dup_factor t =
  if t.support = 0 then 1.0
  else float_of_int t.cardinality /. float_of_int t.support

(* Cumulative count of tuples with value strictly below [x]: binary
   search for the greatest entry < x. *)
let cum_below cumulative x =
  let n = Array.length cumulative in
  let rec search lo hi best =
    if lo > hi then best
    else
      let mid = (lo + hi) / 2 in
      let v, c = cumulative.(mid) in
      if v < x then search (mid + 1) hi c else search lo (mid - 1) best
  in
  search 0 (n - 1) 0

let fraction_below t i x =
  match t.columns.(i - 1).cumulative with
  | [||] -> None
  | cumulative when t.cardinality = 0 -> ignore cumulative; None
  | cumulative ->
      Some (float_of_int (cum_below cumulative x) /. float_of_int t.cardinality)

let fraction_eq t i x =
  match t.columns.(i - 1).cumulative with
  | [||] -> None
  | cumulative when t.cardinality = 0 -> ignore cumulative; None
  | cumulative ->
      let below = cum_below cumulative x in
      let upto = cum_below cumulative (Float.succ x) in
      Some (float_of_int (upto - below) /. float_of_int t.cardinality)

type env = string -> t option

(* Statistics are computed per relation on first access and kept for
   the env's lifetime: an env handed to the optimizer or to EXPLAIN only
   pays for the relations the expression actually scans. *)
let env_of_database db =
  let table =
    List.map
      (fun name -> (name, lazy (of_relation (Database.find name db))))
      (Database.relation_names db)
  in
  fun name -> Option.map Lazy.force (List.assoc_opt name table)

let pp ppf t =
  Format.fprintf ppf "{card=%d; support=%d; ndv=[%a]}" t.cardinality t.support
    (Format.pp_print_seq
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
       (fun ppf c -> Format.pp_print_int ppf c.distinct))
    (Array.to_seq t.columns)
