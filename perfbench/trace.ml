(* In-memory span recorder for the traced run.

   Spans are recorded only around calls the benchmark itself makes into
   a layer's public functions; nothing inside the libraries is touched.
   A span carries its name, start and end (monotonic ns), the span that
   was open when it started, and the request id current at that time.
   Everything stays in memory until [write] at the end of the run. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, -1 at the top level *)
  req : int;
  start_ns : int64;
  mutable stop_ns : int64;
}

let enabled = ref false

let recorded : span list ref = ref []

let open_spans : span list ref = ref []

let next_id = ref 0

let request = ref 0

let now = Mcmap_obs.Obs.now_ns

let set_request r = request := r

let fresh_span ?(req = !request) name parent start_ns =
  incr next_id;
  { id = !next_id; name; parent; req; start_ns; stop_ns = start_ns }

(* Time [f ()] as a child of the innermost open span. A disabled
   recorder costs one branch. *)
let span name f =
  if not !enabled then f ()
  else begin
    let parent = match !open_spans with s :: _ -> s.id | [] -> -1 in
    let s = fresh_span name parent (now ()) in
    open_spans := s :: !open_spans;
    let close () =
      s.stop_ns <- now ();
      open_spans := List.tl !open_spans;
      recorded := s :: !recorded in
    match f () with
    | v -> close (); v
    | exception e -> close (); raise e
  end

(* A span whose interval was measured elsewhere — an RPC opens on send
   and closes on a later receive, so it cannot nest on the stack. *)
let record ?req name ~start_ns ~stop_ns =
  if !enabled then begin
    let s = fresh_span ?req name (-1) start_ns in
    s.stop_ns <- stop_ns;
    recorded := s :: !recorded
  end

(* Counts observed at a layer boundary (jobs per jobset, diagnostics per
   lint, ...): name -> (sum, observations). *)
let counts : (string, float * int) Hashtbl.t = Hashtbl.create 16

let count name v =
  if !enabled then begin
    let s, n = Option.value (Hashtbl.find_opt counts name) ~default:(0., 0) in
    Hashtbl.replace counts name (s +. v, n + 1)
  end

let mean_count name =
  match Hashtbl.find_opt counts name with
  | Some (s, n) -> s /. float_of_int n
  | None -> 0.

(* Self time per span name: a span's duration minus the time its direct
   children cover. Returns name -> (calls, total self ns). *)
let self_times () =
  let spans = !recorded in
  let child_ns = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let d = Int64.sub s.stop_ns s.start_ns in
        let acc =
          Option.value (Hashtbl.find_opt child_ns s.parent) ~default:0L in
        Hashtbl.replace child_ns s.parent (Int64.add acc d)
      end)
    spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = Int64.sub s.stop_ns s.start_ns in
      let kids = Option.value (Hashtbl.find_opt child_ns s.id) ~default:0L in
      let self = Int64.to_float (Int64.sub d kids) in
      let calls, total =
        Option.value (Hashtbl.find_opt by_name s.name) ~default:(0, 0.) in
      Hashtbl.replace by_name s.name (calls + 1, total +. self))
    spans;
  by_name

(* Mean self time per call of [name] in microseconds, 0 when the layer
   was not called on this workload. *)
let self_us tbl name =
  match Hashtbl.find_opt tbl name with
  | Some (calls, total) -> total /. float_of_int calls /. 1e3
  | None -> 0.

let write path =
  let module J = Mcmap_util.Json in
  let spans = List.rev !recorded in
  let span_json s =
    J.Obj
      [ ("id", J.Int s.id); ("name", J.String s.name);
        ("parent", J.Int s.parent); ("req", J.Int s.req);
        ("start_ns", J.String (Int64.to_string s.start_ns));
        ("end_ns", J.String (Int64.to_string s.stop_ns)) ] in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc (J.to_string ~minify:true (J.List (List.map span_json spans)));
  output_char oc '\n'
