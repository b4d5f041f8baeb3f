(* mcbench: the end-to-end benchmark of mcmap (see README.md).

   mcbench --workload W --seed N --seconds S --trace 0|1 [--mcmap BIN]
           [--out DIR]

   Runs one workload against the mcmap libraries (and, for serve-mixed,
   a spawned [mcmap serve] daemon), checks every output outside the
   timed region, and prints as its last stdout line one JSON object:
   the end-to-end metrics with --trace 0, the per-layer metrics of the
   traced run with --trace 1, named and ordered as in the BENCHMARK.json
   of the working directory. *)

(* The metric names and units, in order, of one section of
   BENCHMARK.json — the single list of what a run must report. *)
let metric_list section =
  let module J = Mcmap_util.Json in
  let fail fmt = Printf.ksprintf (fun m -> failwith ("BENCHMARK.json: " ^ m)) fmt in
  let text =
    match In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all with
    | t -> t
    | exception Sys_error e -> fail "%s" e in
  match J.parse text with
  | Error e -> fail "%s" e
  | Ok doc ->
    (match J.member section doc with
     | Some (J.List metrics) ->
       List.map
         (fun m ->
           match J.member "name" m, J.member "unit" m with
           | Some (J.String name), Some (J.String unit) -> (name, unit)
           | _ -> fail "%s entry without name and unit" section)
         metrics
     | Some _ | None -> fail "no %s list" section)

(* A per-layer value the workload did not compute itself comes from the
   spans: [x_us]/[x_ms] is the mean self time per call of span [x], any
   other name the mean of the counts observed at that boundary. Layers a
   workload never calls read 0. *)
let layer_value selfs name =
  let strip suffix =
    let n = String.length name - String.length suffix in
    if n > 0 && String.sub name n (String.length suffix) = suffix then
      Some (String.sub name 0 n)
    else None in
  match strip "_us", strip "_ms" with
  | Some span, _ -> Trace.self_us selfs span
  | None, Some span -> Trace.self_us selfs span /. 1e3
  | None, None -> Trace.mean_count name

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result (o : Common.outcome) metrics =
  List.iter print_endline o.Common.notes;
  let fields =
    List.map
      (fun (name, unit) ->
        let v =
          match List.assoc_opt name o.Common.metrics with
          | Some v -> v
          | None -> Printf.ksprintf failwith "metric %s not produced" name in
        Printf.printf "%-28s %14.6g %s\n" name v unit;
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number v) unit)
      metrics in
  Printf.printf "attempted %d, failed %d, fail_frac %.6g, checks %s\n"
    o.Common.attempted o.Common.failed
    (float_of_int o.Common.failed /. float_of_int (max 1 o.Common.attempted))
    (if o.Common.checks_passed then "passed" else "FAILED");
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (o.Common.checks_passed && o.Common.failed = 0)
    o.Common.attempted o.Common.failed (String.concat ", " fields)

let usage () =
  prerr_endline
    "usage: mcbench --workload explore-dtlarge|analyze-stream|serve-mixed \
     --seed N --seconds S --trace 0|1 [--mcmap BIN] [--out DIR]";
  exit 2

let () =
  (* Leave through [exit] on SIGTERM/SIGINT so the at_exit handlers stop
     every process the run started. *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ];
  let workload = ref "" and seed = ref None and seconds = ref 10.
  and trace = ref false and mcmap = ref "" and out = ref "." in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest ->
      seconds := Option.value (float_of_string_opt v) ~default:nan;
      parse rest
    | "--trace" :: v :: rest -> trace := v = "1"; parse rest
    | "--mcmap" :: v :: rest -> mcmap := v; parse rest
    | "--out" :: v :: rest -> out := v; parse rest
    | [] -> ()
    | _ -> usage () in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = match !seed with Some s -> s | None -> usage () in
  let seconds = !seconds in
  if not (seconds > 0.) then usage ();
  let measure, traced =
    match !workload with
    | "explore-dtlarge" -> (Explore_wl.measure, Explore_wl.traced)
    | "analyze-stream" -> (Analyze_wl.measure, Analyze_wl.traced)
    | "serve-mixed" ->
      (Serve_wl.measure ~mcmap:!mcmap ~dir:!out,
       Serve_wl.traced ~mcmap:!mcmap ~dir:!out)
    | _ -> usage () in
  let metrics = metric_list (if !trace then "per_layer" else "end_to_end") in
  if not !trace then print_result (measure ~seed ~seconds) metrics
  else begin
    let o = traced ~seed ~seconds in
    let selfs = Trace.self_times () in
    let values =
      List.map
        (fun (name, _) ->
          match List.assoc_opt name o.Common.metrics with
          | Some v -> (name, v)
          | None -> (name, layer_value selfs name))
        metrics in
    let path =
      Filename.concat !out (Printf.sprintf "trace-%s-%d.json" !workload seed) in
    Trace.write path;
    print_result
      { o with Common.metrics = values;
        notes = o.Common.notes @ [ "spans written to " ^ path ] }
      metrics
  end
