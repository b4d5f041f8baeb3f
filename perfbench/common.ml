(* What every workload shares: its result record, set-up timing and the
   peak-RSS probe. *)

type outcome = {
  attempted : int;
  failed : int;  (** wrong outputs, rejections, errors, deadline misses *)
  checks_passed : bool;  (** every output check ran and passed *)
  metrics : (string * float) list;
  notes : string list;  (** human-readable lines printed before the JSON *)
}

let now = Mcmap_obs.Obs.now_ns

let elapsed_s t0 = Stat.ns_to_s (Int64.sub (now ()) t0)

(* Run [setup] at least 5 times and until [seconds] have gone into
   set-ups (at most 101 times), tearing down every result but the last,
   and return the last result with every set-up time in seconds: one
   set-up of a few milliseconds is mostly timer and cache noise. *)
let timed_setups ?(teardown = ignore) ?(seconds = 1.) setup =
  let t_start = now () in
  let rec go i times =
    let t0 = now () in
    let ctx = setup () in
    let times = elapsed_s t0 :: times in
    if i + 1 < 101 && (i + 1 < 5 || elapsed_s t_start < seconds) then begin
      teardown ctx;
      go (i + 1) times
    end
    else (ctx, times) in
  go 0 []

(* [setup_s]: the median over [first], the set-up times taken before the
   timed region, and a second batch taken now, after it. The host's
   speed drifts over seconds, and one batch would time a single moment
   of the run. *)
let setup_s ?(teardown = ignore) setup first =
  let last, more = timed_setups ~teardown setup in
  teardown last;
  Stat.median (first @ more)

(* Peak resident set size (VmHWM) of a live process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  In_channel.with_open_text path @@ fun ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      | line ->
        (match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
         | Some kb -> float_of_int kb /. 1024.
         | None -> scan ()) in
    scan ()

(* Every input of a run derives from the benchmark seed through named
   streams, so adding a stream never shifts another. *)
let rng ~seed stream =
  Mcmap_util.Prng.create ((seed * 1_000_003) + Hashtbl.hash stream)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let get = function Ok v -> v | Error e -> failwith e

(* The metrics of one family in an Obs snapshot: [name] and every
   [name~label]. *)
let family snap name =
  List.filter_map
    (fun (key, m) ->
      if key = name || String.starts_with ~prefix:(name ^ "~") key then Some m
      else None)
    snap.Mcmap_obs.Obs.metrics

let counter snap name =
  List.fold_left
    (fun a m -> match m with Mcmap_obs.Obs.Counter n -> a +. float_of_int n | _ -> a)
    0. (family snap name)

let ratio hit miss = if hit +. miss > 0. then hit /. (hit +. miss) else 0.
