(* What the benchmark declares: its workloads, the seeds later claims
   are checked on, and every metric with its unit and direction.
   BENCHMARK.json at the repository root carries the same names; the
   benchmark's tests keep the two in step. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
}

let m name unit_ better = { name; unit_; better }

(* Seed of the default runs, and the held-out seed no change is tuned
   on: a claimed gain must hold on both. *)
let default_seed = 1
let heldout_seed = 2

(* Printed with tracing off, for every workload. *)
let end_to_end =
  [
    m "wall_s" "s" Lower;
    m "setup_s" "s" Lower;
    m "events_per_s" "1/s" Higher;
    m "peak_rss_mib" "MiB" Lower;
    m "minor_words_per_event" "words/event" Lower;
    m "sim_cycles" "cycles" Lower;
    m "sim_p50_cycles" "cycles" Lower;
    m "sim_p99_cycles" "cycles" Lower;
    m "sim_rpmc" "1/Mcycle" Higher;
  ]

(* Printed by the traced run, for every workload; a layer a workload
   bypasses reads 0. *)
let per_layer =
  [
    m "boot.systems" "count" Lower;
    m "boot.dram_mib" "MiB" Lower;
    m "boot.start_s" "s" Lower;
    m "boot.bringup_s" "s" Lower;
    m "gc.minor_words" "words" Lower;
    m "gc.major_words" "words" Lower;
    m "gc.major_collections" "count" Lower;
    m "gc.top_heap_mib" "MiB" Lower;
    m "sim.events" "count" Lower;
    m "sim.host_ns_per_event" "ns" Lower;
    m "sim.samples" "count" Higher;
    m "mem.dma_read_bytes" "bytes" Lower;
    m "mem.dma_write_bytes" "bytes" Lower;
    m "fs.host_ms_per_mib" "ms/MiB" Lower;
    m "noc.packets" "count" Lower;
    m "noc.bytes" "bytes" Lower;
    m "noc.link_queued_cycles" "cycles" Lower;
    m "noc.link_queued_p99_cycles" "cycles" Lower;
    m "dtu.sends" "count" Lower;
    m "dtu.replies" "count" Lower;
    m "dtu.receives" "count" Lower;
    m "dtu.drops" "count" Lower;
    m "dtu.nacks" "count" Lower;
    m "dtu.retries" "count" Lower;
    m "dtu.delivered_ratio" "ratio" Higher;
    m "kernel.syscalls" "count" Lower;
    m "kernel.syscall_failed" "count" Lower;
    m "kernel.syscall_p50_cycles" "cycles" Lower;
    m "kernel.syscall_p99_cycles" "cycles" Lower;
    m "kernel.vpes_created" "count" Lower;
    m "kernel.leaked_vpes" "count" Lower;
    m "kernel.leaked_eps" "count" Lower;
    m "m3fs.requests" "count" Lower;
    m "m3fs.op_p50_cycles" "cycles" Lower;
    m "m3fs.op_p99_cycles" "cycles" Lower;
    m "m3fs.round_trips" "count" Lower;
    m "m3fs.cache_hits" "count" Higher;
    m "m3fs.cache_misses" "count" Lower;
    m "m3fs.cache_hit_ratio" "ratio" Higher;
    m "m3fs.cache_invals" "count" Lower;
    m "m3fs.inval_sends" "count" Lower;
    m "m3fs.fsck_errors" "count" Lower;
    m "pipe.pushes" "count" Lower;
    m "pipe.bytes" "bytes" Lower;
    m "trace.replays" "count" Higher;
    m "trace.replay_p50_cycles" "cycles" Lower;
    m "trace.replay_host_ms_p50" "ms" Lower;
    m "serve.admitted" "count" Higher;
    m "serve.rejected" "count" Lower;
    m "serve.batches" "count" Lower;
    m "serve.batch_mean" "requests" Higher;
    m "serve.queue_depth_max" "requests" Lower;
    m "serve.retried" "count" Lower;
    m "serve.deduped" "count" Lower;
    m "serve.service_p50_cycles" "cycles" Lower;
    m "serve.service_p99_cycles" "cycles" Lower;
    m "serve.dispatch_p99_cycles" "cycles" Lower;
    m "serve.gen_lag_p99_cycles" "cycles" Lower;
    m "serve.run_open_host_s" "s" Lower;
    m "serve.slo_rate_rpmc" "1/Mcycle" Higher;
    m "kv.gets" "count" Higher;
    m "kv.puts" "count" Higher;
    m "kv.dup_skips" "count" Lower;
    m "kv.double_applied" "count" Lower;
    m "kv.exec_p50_cycles" "cycles" Lower;
    m "kv.exec_p99_cycles" "cycles" Lower;
    m "kv.exec_host_us_p99" "us" Lower;
    m "acct.app_cycles" "cycles" Lower;
    m "acct.os_cycles" "cycles" Lower;
    m "acct.xfer_cycles" "cycles" Lower;
    m "obs.events" "count" Lower;
    m "obs.trace_overhead_ratio" "ratio" Lower;
    m "error_rate" "ratio" Lower;
  ]

type workload = {
  name : string;
  why : string;
  loads : string list;  (** layers doing the work *)
  bypasses : string list;  (** layers the workload never reaches *)
  run : small:bool -> Pass.t -> seed:int -> unit;
      (** [small] shrinks every size for the benchmark's own tests *)
}

let workloads =
  [
    {
      name = "paper-sweep";
      why =
        "a fresh system per Fig. 3 / trace / Fig. 6 cell, so DRAM zero-fill, \
         m3fs format and kernel/m3fs contention dominate";
      loads = [ "boot"; "gc"; "kernel"; "m3fs"; "pipe"; "trace"; "noc"; "dtu"; "mem" ];
      bypasses = [ "serve"; "kv" ];
      run =
        (fun ~small ->
          if small then Sweep.run ~counts:[ 1 ] else Sweep.run ?counts:None);
    };
    {
      name = "serve-open";
      why =
        "open-loop Echo load on a 4-worker pool at 0.5-1.0x capacity: engine, NoC, \
         DTU messaging and dispatch do the work, setup and mem are negligible";
      loads = [ "sim"; "noc"; "dtu"; "kernel"; "serve" ];
      bypasses = [ "m3fs"; "mem"; "kv"; "trace"; "pipe" ];
      run =
        (fun ~small ->
          Serve_open.run ?per_phase:(if small then Some 200 else None));
    };
    {
      name = "kv-zipf";
      why =
        "9:1 get:put over Zipf keys on 2 m3fs shards with the mount cache live: \
         kv, m3fs server and client cache do the work, puts invalidate";
      loads = [ "kv"; "m3fs"; "serve"; "dtu"; "noc"; "kernel" ];
      bypasses = [ "pipe"; "trace" ];
      run =
        (fun ~small ->
          if small then Kv_zipf.run ~keys:64 ~requests:300 else Kv_zipf.run ?keys:None ?requests:None);
    };
    {
      name = "fs-bulk";
      why =
        "8 clients replay tar/untar/find/sqlite for 3 rounds with real DMA and no \
         client cache: the mem data path and NoC bandwidth dominate";
      loads = [ "mem"; "noc"; "m3fs"; "trace"; "dtu"; "kernel" ];
      bypasses = [ "serve"; "kv"; "pipe"; "m3fs cache" ];
      run =
        (fun ~small ->
          if small then Fs_bulk.run ~clients:2 ~rounds:2 else Fs_bulk.run ?clients:None ?rounds:None);
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

let valid_name s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s
