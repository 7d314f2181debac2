(* Behaviour lock for the observability layer: one sample of every
   event kind, rendered three ways — the log line ([Event.to_string]),
   the Chrome trace-event document and the [Report.print_obs] summary.
   Its stdout is diffed against [golden/obs_events.txt]. *)

open M3_obs

let samples =
  [
    ( 10,
      Event.Dtu_send
        { pe = 1; ep = 2; dst_pe = 3; dst_ep = 4; bytes = 80; msg = 1;
          reply = false } );
    ( 11,
      Event.Dtu_send
        { pe = 3; ep = 4; dst_pe = 1; dst_ep = 5; bytes = 48; msg = 2;
          reply = true } );
    ( 12,
      Event.Dtu_send
        { pe = 1; ep = 6; dst_pe = 2; dst_ep = 0; bytes = 16; msg = 0;
          reply = false } );
    (13, Event.Dtu_receive { pe = 3; ep = 4; src_pe = 1; bytes = 80; msg = 1 });
    ( 14,
      Event.Dtu_drop { pe = 3; ep = 4; src_pe = 1; msg = 3; reason = "full" } );
    (15, Event.Dtu_read { pe = 1; mem_pe = 7; bytes = 4096; msg = 4 });
    (16, Event.Dtu_write { pe = 1; mem_pe = 7; bytes = 2048; msg = 5 });
    ( 17,
      Event.Noc_xfer
        { src = 1; dst = 3; bytes = 64; depart = 17; arrive = 30; msg = 1 } );
    ( 18,
      Event.Noc_link
        { link_src = 1; link_dst = 2; enter = 18; leave = 22; queued = 3;
          msg = 1 } );
    (19, Event.Syscall_enter { pe = 1; vpe = 1; op = "noop" });
    ( 219,
      Event.Syscall_exit
        { pe = 1; vpe = 1; op = "noop"; ok = true; cycles = 200 } );
    ( 220,
      Event.Syscall_exit
        { pe = 1; vpe = 1; op = "revoke"; ok = false; cycles = 40 } );
    (230, Event.Fs_request { pe = 2; session = 3; op = "open" });
    (400, Event.Fs_response { pe = 2; session = 3; op = "open"; cycles = 170 });
    (401, Event.Fs_shard { pe = 1; shard = 1; srv = "m3fs.1" });
    (402, Event.Fs_queue { pe = 2; srv = "m3fs.1"; depth = 4 });
    (403, Event.Fs_cache_hit { pe = 1; kind = "attr" });
    (404, Event.Fs_cache_miss { pe = 1; kind = "extent" });
    (405, Event.Fs_cache_inval { pe = 1; kind = "ino" });
    (406, Event.Fs_cache_flush { pe = 1; gen = 2; reason = "gap" });
    ( 407,
      Event.Fs_inval_send { pe = 2; srv = "m3fs.0"; session = 3; kind = "path" }
    );
    (408, Event.Vpe_create { vpe = 4; pe = 5; name = "worker" });
    (409, Event.Vpe_start { vpe = 4; pe = 5; name = "worker" });
    (410, Event.Vpe_exit { vpe = 4; pe = 5; code = 0 });
    (411, Event.Pipe_push { vpe = 1; pe = 1; bytes = 512 });
    (412, Event.Pipe_pop { vpe = 4; pe = 5; bytes = 256 });
    (413, Event.Pe_spawn { pe = 5; name = "worker" });
    (414, Event.Pe_halt { pe = 5 });
    ( 415,
      Event.Fault_drop
        { src = 1; dst = 3; bytes = 64; msg = 6; reason = "plan" } );
    (416, Event.Fault_corrupt { src = 3; dst = 1; bytes = 32; msg = 7 });
    (417, Event.Fault_stall { pe = 2; cycles = 25 });
    ( 418,
      Event.Dtu_nack { pe = 1; ep = 2; dst_pe = 3; msg = 8; reason = "dead" } );
    ( 419,
      Event.Dtu_retry { pe = 1; dst_pe = 3; msg = 8; attempt = 1; backoff = 64 }
    );
    (420, Event.Fault_pe_crash { pe = 6 });
    (421, Event.Vpe_crash { vpe = 7; pe = 6 });
    (422, Event.Vpe_abort { vpe = 7; pe = 6; reason = "crash" });
    (423, Event.Vpe_restart { vpe = 8; pe = 9; name = "srv"; attempt = 1 });
    (424, Event.Kernel_heartbeat { pe = 0; probed = 6; dead = 1 });
    (425, Event.Serve_admit { pe = 2; pool = "echo"; seq = 1; depth = 0 });
    (426, Event.Serve_reject { pe = 2; pool = "echo"; seq = 2; depth = 8 });
    (427, Event.Serve_batch { pe = 2; pool = "echo"; worker = 0; size = 3 });
    (900, Event.Serve_done { pe = 2; pool = "echo"; seq = 1; cycles = 470 });
    ( 901,
      Event.Serve_restart { pe = 10; pool = "echo"; worker = 1; attempt = 1 } );
    (902, Event.Vpe_suspend { vpe = 4; pe = 5; bytes = 65536 });
    (903, Event.Vpe_resume { vpe = 4; pe = 5; from_pe = 5; cold = false });
    (904, Event.Vpe_resume { vpe = 4; pe = 6; from_pe = 5; cold = false });
    (905, Event.Vpe_resume { vpe = 11; pe = 7; from_pe = 7; cold = true });
    (906, Event.Sched_switch { pe = 5; out_vpe = 4; in_vpe = -1 });
    (907, Event.Pool_scale { pe = 2; pool = "auto"; dir = 1; active = 3 });
    (908, Event.Pool_scale { pe = 2; pool = "auto"; dir = -1; active = 2 });
    (909, Event.Gw_throttle { pe = 2; pool = "hot"; client = 4; seq = 9 });
    (910, Event.Gw_break { pe = 2; pool = "brk"; worker = 0; phase = "trip" });
    (911, Event.Gw_break { pe = 2; pool = "brk"; worker = 0; phase = "probe" });
    (912, Event.Gw_break { pe = 2; pool = "brk"; worker = 0; phase = "close" });
    ( 990,
      Event.Gw_upgrade { pe = 2; pool = "upg"; target = "worker0"; cycles = 80 }
    );
    ( 991,
      Event.Kv_op { pe = 5; store = "kv"; op = "get"; bucket = 1; dup = false }
    );
    ( 992,
      Event.Kv_op { pe = 5; store = "kv"; op = "put"; bucket = 2; dup = false }
    );
    ( 993,
      Event.Kv_op { pe = 5; store = "kv"; op = "put"; bucket = 2; dup = true }
    );
    ( 994,
      Event.Kv_op
        { pe = 5; store = "kv"; op = "delete"; bucket = 0; dup = false } );
    ( 995,
      Event.Kv_op { pe = 5; store = "kv"; op = "scan"; bucket = 1; dup = false }
    );
  ]

let feed sink = List.iter (fun (at, ev) -> sink.Obs.sink_emit ~at ev)

let () =
  print_endline "== log ==";
  List.iter
    (fun (at, ev) -> Printf.printf "%d %s\n" at (Event.to_string ev))
    samples;
  (* Two runs, so the second pid namespace and its flow ids show too. *)
  let chrome = Chrome.create () in
  Chrome.begin_run chrome;
  feed (Chrome.sink chrome) samples;
  Chrome.begin_run chrome;
  feed (Chrome.sink chrome) (List.filteri (fun i _ -> i < 4) samples);
  print_endline "== chrome ==";
  print_endline (Chrome.to_string chrome);
  let metrics = Metrics.create () in
  feed (Metrics.sink metrics) samples;
  print_endline "== summary ==";
  M3_harness.Report.print_obs Format.std_formatter metrics;
  Format.pp_print_flush Format.std_formatter ()
