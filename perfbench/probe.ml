(* Host-side probes: wall clock, GC counters and peak resident set. *)

let now () = Unix.gettimeofday ()

type gc = {
  minor_words : float;
  major_words : float;
  major_collections : int;
}

let gc () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    major_words = s.Gc.major_words;
    major_collections = s.Gc.major_collections;
  }

let top_heap_mib () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* VmHWM from /proc/self/status, in MiB; 0 where procfs is missing. *)
let peak_rss_mib () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.0)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v
