(* The benchmark's own span buffer.

   Spans are recorded from outside the library, around each call the
   benchmark makes into a layer.  An operation (one statement, one write
   round, one durability step) is a root span; the layer calls it makes
   are its descendants and carry the root's id.  Spans stay in memory and
   are written out once, at the end, as a Chrome trace-event file. *)

type span = {
  id : int;
  parent : int;  (** id of the enclosing span; -1 for an operation root *)
  root : int;  (** id of the operation root this span belongs to *)
  name : string;
  t0 : float;  (** wall seconds *)
  t1 : float;
  words : float;  (** minor words allocated between start and end *)
}

let now = Unix.gettimeofday
let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let open_spans : (int * int) list ref = ref [] (* (id, root), innermost first *)

(* [with_span name f] runs [f], recording a span when tracing is on. *)
let with_span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent, root =
      match !open_spans with (p, r) :: _ -> (p, r) | [] -> (-1, id)
    in
    open_spans := (id, root) :: !open_spans;
    let w0 = Gc.minor_words () in
    let t0 = now () in
    Fun.protect f ~finally:(fun () ->
        let t1 = now () in
        let words = Gc.minor_words () -. w0 in
        open_spans := List.tl !open_spans;
        recorded := { id; parent; root; name; t0; t1; words } :: !recorded)
  end

let duration s = s.t1 -. s.t0

(* Every span with its self time and self words: its own figures minus
   those of its direct children.  The client is single-threaded, so the
   children of one span never overlap. *)
let with_self () =
  let all = List.rev !recorded in
  let child = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let d, w =
          Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt child s.parent)
        in
        Hashtbl.replace child s.parent (d +. duration s, w +. s.words))
    all;
  List.map
    (fun s ->
      let d, w =
        Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt child s.id)
      in
      (s, duration s -. d, s.words -. w))
    all

let write_chrome path =
  let all = List.rev !recorded in
  let origin = match all with s :: _ -> s.t0 | [] -> 0.0 in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"traceEvents\": [";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s\n{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": \
             %.1f, \"dur\": %.1f, \"args\": {\"id\": %d, \"parent\": %d, \
             \"root\": %d, \"minor_words\": %.0f}}"
            (if i = 0 then "" else ",")
            s.name
            ((s.t0 -. origin) *. 1e6)
            (duration s *. 1e6) s.id s.parent s.root s.words)
        all;
      output_string oc "\n]}\n")
