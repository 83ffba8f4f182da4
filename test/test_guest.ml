(* Tests for the guest-kernel library: filesystem, shell, network
   simulation, kernel wrappers and the vDSO backdoor hook. *)

open Ii_xen
open Ii_guest

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* --- Fs ----------------------------------------------------------------- *)

let test_fs_write_read () =
  let fs = Fs.create () in
  Fs.write fs ~path:"/tmp/a" ~uid:1000 "hello";
  (match Fs.read fs "/tmp/a" with
  | Some f ->
      check_str "content" "hello" f.Fs.content;
      check_int "uid" 1000 f.Fs.uid
  | None -> Alcotest.fail "missing");
  check_bool "exists" true (Fs.exists fs "/tmp/a");
  Fs.remove fs "/tmp/a";
  check_bool "removed" false (Fs.exists fs "/tmp/a")

let test_fs_overwrite () =
  let fs = Fs.create () in
  Fs.write fs ~path:"/x" ~uid:0 "one";
  Fs.write fs ~path:"/x" ~uid:1000 "two";
  match Fs.read fs "/x" with
  | Some f ->
      check_str "latest" "two" f.Fs.content;
      check_int "latest uid" 1000 f.Fs.uid
  | None -> Alcotest.fail "missing"

let test_fs_permissions () =
  let root_file = { Fs.content = "secret"; uid = 0; gid = 0 } in
  let user_file = { Fs.content = "public"; uid = 1000; gid = 1000 } in
  check_bool "root reads root" true (Fs.readable_by root_file ~uid:0);
  check_bool "user blocked from root file" false (Fs.readable_by root_file ~uid:1000);
  check_bool "user reads own" true (Fs.readable_by user_file ~uid:1000);
  check_bool "other user reads non-root" true (Fs.readable_by user_file ~uid:1001)

let test_fs_paths_sorted () =
  let fs = Fs.create () in
  Fs.write fs ~path:"/b" ~uid:0 "";
  Fs.write fs ~path:"/a" ~uid:0 "";
  Alcotest.(check (list string)) "sorted" [ "/a"; "/b" ] (Fs.paths fs)

(* --- Shell --------------------------------------------------------------- *)

let ctx ?(uid = 1000) () = { Shell.hostname = "xen3"; fs = Fs.create (); uid }

let test_shell_builtins () =
  let c = ctx () in
  check_str "hostname" "xen3" (Shell.run c "hostname");
  check_str "whoami" "xen" (Shell.run c "whoami");
  check_str "id" "uid=1000(xen) gid=1000(xen) groups=1000(xen)" (Shell.run c "id");
  check_str "echo" "a b c" (Shell.run c "echo a b c");
  check_str "root id" "uid=0(root) gid=0(root) groups=0(root)"
    (Shell.run { c with Shell.uid = 0 } "id")

let test_shell_chain () =
  let c = ctx ~uid:0 () in
  check_str "chain" "root\nxen3" (Shell.run c "whoami && hostname")

let test_shell_substitution () =
  let c = ctx ~uid:0 () in
  check_str "subst" "|uid=0(root) gid=0(root) groups=0(root)|@xen3"
    (Shell.run c "echo \"|$(id)|@$(hostname)\"")

let test_shell_redirect () =
  let c = ctx ~uid:0 () in
  let out = Shell.run c "echo \"|$(id)|@$(hostname)\" > /tmp/injector_log" in
  check_str "silent" "" out;
  match Fs.read c.Shell.fs "/tmp/injector_log" with
  | Some f ->
      check_str "file content" "|uid=0(root) gid=0(root) groups=0(root)|@xen3" f.Fs.content;
      check_int "root owned" 0 f.Fs.uid
  | None -> Alcotest.fail "no file"

let test_shell_cat_permissions () =
  let c = ctx ~uid:0 () in
  Fs.write c.Shell.fs ~path:"/root/root_msg" ~uid:0 "Confidential content in root folder!";
  check_str "root cat" "Confidential content in root folder!" (Shell.run c "cat /root/root_msg");
  let user = { c with Shell.uid = 1000 } in
  check_str "user denied" "cat: /root/root_msg: Permission denied"
    (Shell.run user "cat /root/root_msg");
  check_str "missing" "cat: /nope: No such file or directory" (Shell.run c "cat /nope")

let test_shell_unknown () =
  check_str "unknown" "sh: nmap: command not found" (Shell.run (ctx ()) "nmap -sS target")

let test_shell_user_names () =
  check_str "root" "root" (Shell.user_name 0);
  check_str "xen" "xen" (Shell.user_name 1000);
  check_str "other" "user42" (Shell.user_name 42)

(* --- Netsim ----------------------------------------------------------------- *)

let test_netsim_refused_without_listener () =
  let net = Netsim.create () in
  match
    Netsim.connect net ~from_host:"a" ~from_ip:"10.0.0.1" ~host:"b" ~port:80 ~uid:0
      ~exec:(fun _ -> "")
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected refusal"

let test_netsim_connect_and_run () =
  let net = Netsim.create () in
  Netsim.listen net ~host:"xen2" ~port:1234;
  check_bool "listening" true (Netsim.is_listening net ~host:"xen2" ~port:1234);
  match
    Netsim.connect net ~from_host:"xen3" ~from_ip:"10.3.1.180" ~host:"xen2" ~port:1234 ~uid:0
      ~exec:(fun cmd -> if cmd = "whoami" then "root" else "?")
  with
  | Error e -> Alcotest.fail e
  | Ok conn ->
      check_str "exec routes to victim" "root" (Netsim.run_command conn "whoami");
      check_int "tracked" 1 (List.length (Netsim.connections_to net ~host:"xen2" ~port:1234));
      let t = Netsim.transcript conn in
      check_bool "banner" true
        (String.length t > 0 && String.sub t 0 (String.length "Listening on") = "Listening on");
      check_bool "command logged" true
        (List.exists (fun l -> l = "whoami") (String.split_on_char '\n' t))

(* --- Kernel -------------------------------------------------------------- *)

let tb () = Testbed.create Version.V4_6

let contains line needle =
  let n = String.length needle and m = String.length line in
  let rec go i = i + n <= m && (String.sub line i n = needle || go (i + 1)) in
  go 0

let test_kernel_identity () =
  let tb = tb () in
  check_str "dom0 hostname" "xen3" (Kernel.hostname tb.Testbed.dom0);
  check_str "attacker hostname" "guest03" (Kernel.hostname tb.Testbed.attacker);
  check_str "ip" "10.3.1.182" (Kernel.ip tb.Testbed.attacker);
  check_bool "dom0 privileged" true (Kernel.dom tb.Testbed.dom0).Domain.privileged;
  check_bool "root_msg seeded" true (Fs.exists (Kernel.fs tb.Testbed.dom0) "/root/root_msg")

let test_kernel_printk () =
  let tb = tb () in
  let k = tb.Testbed.attacker in
  Kernel.printk k "hello";
  Kernel.printk_tagged k ~tag:"xen_exploit" "xen version = 4.6";
  match Kernel.klog k with
  | [ a; b ] ->
      check_bool "stamped" true (String.length a > 6 && a.[0] = '[');
      check_bool "tagged" true (contains b "xen_exploit")
  | _ -> Alcotest.fail "expected two lines"

let test_kernel_start_info () =
  let tb = tb () in
  let k = tb.Testbed.attacker in
  check_int "pt_base matches domain" (Kernel.dom k).Domain.l4_mfn (Kernel.pt_base_mfn k);
  check_bool "vdso mfn valid" true (Kernel.vdso_mfn k >= 0)

let test_kernel_pt_entry () =
  let tb = tb () in
  let k = tb.Testbed.attacker in
  let l4 = Kernel.pt_base_mfn k in
  (match Kernel.pt_entry k ~table_mfn:l4 ~index:(Addr.l4_index Layout.guest_kernel_base) with
  | Some e -> check_bool "kernel slot present" true (Pte.is_present e)
  | None -> Alcotest.fail "l4 readable");
  check_bool "xen frame unreadable" true
    (Kernel.pt_entry k ~table_mfn:(Kernel.hv k).Hv.idt_mfn ~index:0 = None)

let test_kernel_memory_access () =
  let tb = tb () in
  let k = tb.Testbed.attacker in
  let va = Domain.kernel_vaddr_of_pfn 5 in
  check_bool "write" true (Result.is_ok (Kernel.write_u64 k va 77L));
  check_bool "read" true (Kernel.read_u64 k va = Ok 77L);
  check_bool "fault" true (Result.is_error (Kernel.read_u64 k 0xdead0000L));
  check_bool "not crashed" false (Hv.is_crashed (Kernel.hv k));
  check_bool "bug logged" true (List.exists (fun l -> contains l "BUG") (Kernel.klog k))

(* The fault path's klog line, byte for byte: the same text a fresh
   kernel has always printed, including the 16-digit zero-padded
   address and two's-complement hex for a high-half address. *)
let test_kernel_fault_klog () =
  let tb = tb () in
  let k = tb.Testbed.attacker in
  check_bool "low address faults" true (Result.is_error (Kernel.read_u64 k 0x0000_00ba_d000_0000L));
  check_bool "high address faults" true
    (Result.is_error (Kernel.read_u64 k 0xffff_f000_dead_0000L));
  match Kernel.klog k with
  | [ a; b ] ->
      check_str "low" "[  116.0017] BUG: unable to handle kernel paging request at 0x000000bad0000000" a;
      check_str "high" "[  116.0034] BUG: unable to handle kernel paging request at 0xfffff000dead0000" b
  | lines -> Alcotest.failf "expected two klog lines, got %d" (List.length lines)

let test_kernel_hypercall_rc () =
  let tb = tb () in
  let k = tb.Testbed.attacker in
  check_int "enosys" (-38) (Kernel.hypercall_rc k (Hypercall.Raw { number = 99; args = [||] }))

let test_kernel_shell_uses_own_fs () =
  let tb = tb () in
  ignore (Kernel.shell tb.Testbed.attacker ~uid:0 "echo x > /tmp/mark");
  check_bool "attacker fs" true (Fs.exists (Kernel.fs tb.Testbed.attacker) "/tmp/mark");
  check_bool "victim fs untouched" false (Fs.exists (Kernel.fs tb.Testbed.victim) "/tmp/mark")

(* --- Backdoor ------------------------------------------------------------ *)

let test_backdoor_roundtrip () =
  let payloads =
    [
      Kernel.Backdoor.Run_as_root "echo hi > /tmp/x";
      Kernel.Backdoor.Reverse_shell { host = "xen2"; port = 1234 };
    ]
  in
  List.iter
    (fun p ->
      match Kernel.Backdoor.decode (Kernel.Backdoor.encode p) with
      | Some p' -> check_bool "roundtrip" true (p = p')
      | None -> Alcotest.fail "decode")
    payloads;
  check_bool "garbage" true (Kernel.Backdoor.decode (Bytes.make 64 'x') = None);
  check_bool "short" true (Kernel.Backdoor.decode (Bytes.create 3) = None)

let write_backdoor k payload =
  let hv = Kernel.hv k in
  let frame = Phys_mem.frame hv.Hv.mem (Kernel.vdso_mfn k) in
  Frame.write_bytes frame Builder.Vdso.code_off (Kernel.Backdoor.encode payload)

let test_tick_runs_backdoor () =
  let tb = tb () in
  let k = tb.Testbed.victim in
  Kernel.tick k;
  check_bool "clean tick" false (Fs.exists (Kernel.fs k) "/tmp/injector_log");
  write_backdoor k (Kernel.Backdoor.Run_as_root "echo \"|$(id)|@$(hostname)\" > /tmp/injector_log");
  Kernel.tick k;
  match Fs.read (Kernel.fs k) "/tmp/injector_log" with
  | Some f ->
      check_int "root" 0 f.Fs.uid;
      check_str "content" "|uid=0(root) gid=0(root) groups=0(root)|@guest01" f.Fs.content
  | None -> Alcotest.fail "backdoor did not run"

let test_tick_reverse_shell () =
  let tb = tb () in
  Testbed.remote_listen tb ~port:1234;
  write_backdoor tb.Testbed.dom0 (Kernel.Backdoor.Reverse_shell { host = "xen2"; port = 1234 });
  Kernel.tick tb.Testbed.dom0;
  Kernel.tick tb.Testbed.dom0;
  let conns = Netsim.connections_to tb.Testbed.net ~host:"xen2" ~port:1234 in
  check_int "one connection" 1 (List.length conns);
  let conn = List.hd conns in
  check_int "root shell" 0 conn.Netsim.conn_uid;
  check_str "remote commands execute as root" "root\nxen3"
    (Netsim.run_command conn "whoami && hostname")

let test_tick_noop_after_crash () =
  let tb = tb () in
  Hv.panic tb.Testbed.hv ~reason:"dead" ~dump:[];
  write_backdoor tb.Testbed.victim (Kernel.Backdoor.Run_as_root "echo x > /tmp/after_crash");
  Kernel.tick tb.Testbed.victim;
  check_bool "no execution on dead host" false
    (Fs.exists (Kernel.fs tb.Testbed.victim) "/tmp/after_crash")

(* --- Process ------------------------------------------------------------- *)

let test_process_table () =
  let t = Process.create () in
  (match Process.list t with
  | [ init; sh ] ->
      check_int "init pid" 1 init.Process.pid;
      check_int "init uid" 0 init.Process.uid;
      check_int "shell pid" 1000 sh.Process.pid;
      check_int "shell uid" 1000 sh.Process.uid
  | _ -> Alcotest.fail "two residents expected");
  let p = Process.spawn t ~uid:1000 ~cmdline:"./attack" in
  check_int "fresh pid" 1001 p.Process.pid;
  check_int "three procs" 3 (List.length (Process.list t));
  Alcotest.(check (list int)) "uids" [ 0; 1000 ] (Process.running_uids t);
  check_bool "kill" true (Process.kill t ~pid:p.Process.pid);
  check_bool "kill gone" false (Process.kill t ~pid:p.Process.pid);
  check_bool "find init" true (Process.find t ~pid:1 <> None)

let test_process_vdso_calls () =
  let t = Process.create () in
  Process.on_tick t;
  Process.on_tick t;
  List.iter (fun p -> check_int "two calls" 2 p.Process.vdso_calls) (Process.list t)

let test_ps_builtin () =
  let tb = tb () in
  let k = tb.Testbed.attacker in
  ignore (Process.spawn (Kernel.processes k) ~uid:1000 ~cmdline:"./xsa212_poc");
  let out = Kernel.shell k ~uid:1000 "ps" in
  check_bool "header" true (contains out "COMMAND");
  check_bool "init listed" true (contains out "/sbin/init");
  check_bool "attacker tool listed" true (contains out "./xsa212_poc");
  check_bool "user names resolved" true (contains out "root" && contains out "xen")

let test_tick_counts_vdso_calls () =
  let tb = tb () in
  Kernel.tick tb.Testbed.victim;
  List.iter
    (fun p -> check_int "one call per tick" 1 p.Process.vdso_calls)
    (Process.list (Kernel.processes tb.Testbed.victim))

(* --- Testbed ---------------------------------------------------------------- *)

let test_testbed_shape () =
  let tb = tb () in
  check_int "three kernels" 3 (List.length (Testbed.kernels tb));
  check_int "three domains" 3 (List.length tb.Testbed.hv.Hv.domains);
  check_str "remote host" "xen2" tb.Testbed.remote_host;
  let tb2 = Testbed.create Version.V4_6 in
  check_int "deterministic l4"
    (Kernel.dom tb.Testbed.attacker).Domain.l4_mfn
    (Kernel.dom tb2.Testbed.attacker).Domain.l4_mfn

let test_testbed_isolation_baseline () =
  let tb = tb () in
  let victim_mfn = Option.get (Domain.mfn_of_pfn (Kernel.dom tb.Testbed.victim) 5) in
  let va = Layout.directmap_of_maddr (Addr.maddr_of_mfn victim_mfn) in
  check_bool "attacker blocked" true (Result.is_error (Kernel.read_u64 tb.Testbed.attacker va))

let () =
  Alcotest.run "guest"
    [
      ( "fs",
        [
          Alcotest.test_case "write/read" `Quick test_fs_write_read;
          Alcotest.test_case "overwrite" `Quick test_fs_overwrite;
          Alcotest.test_case "permissions" `Quick test_fs_permissions;
          Alcotest.test_case "paths sorted" `Quick test_fs_paths_sorted;
        ] );
      ( "shell",
        [
          Alcotest.test_case "builtins" `Quick test_shell_builtins;
          Alcotest.test_case "&& chain" `Quick test_shell_chain;
          Alcotest.test_case "substitution" `Quick test_shell_substitution;
          Alcotest.test_case "redirect" `Quick test_shell_redirect;
          Alcotest.test_case "cat permissions" `Quick test_shell_cat_permissions;
          Alcotest.test_case "unknown command" `Quick test_shell_unknown;
          Alcotest.test_case "user names" `Quick test_shell_user_names;
        ] );
      ( "netsim",
        [
          Alcotest.test_case "refused without listener" `Quick test_netsim_refused_without_listener;
          Alcotest.test_case "connect and run" `Quick test_netsim_connect_and_run;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "identity" `Quick test_kernel_identity;
          Alcotest.test_case "printk" `Quick test_kernel_printk;
          Alcotest.test_case "start_info" `Quick test_kernel_start_info;
          Alcotest.test_case "pt_entry" `Quick test_kernel_pt_entry;
          Alcotest.test_case "memory access" `Quick test_kernel_memory_access;
          Alcotest.test_case "fault klog line" `Quick test_kernel_fault_klog;
          Alcotest.test_case "hypercall rc" `Quick test_kernel_hypercall_rc;
          Alcotest.test_case "shell fs isolation" `Quick test_kernel_shell_uses_own_fs;
        ] );
      ( "backdoor",
        [
          Alcotest.test_case "roundtrip" `Quick test_backdoor_roundtrip;
          Alcotest.test_case "tick runs payload" `Quick test_tick_runs_backdoor;
          Alcotest.test_case "reverse shell" `Quick test_tick_reverse_shell;
          Alcotest.test_case "noop after crash" `Quick test_tick_noop_after_crash;
        ] );
      ( "process",
        [
          Alcotest.test_case "table" `Quick test_process_table;
          Alcotest.test_case "vdso calls" `Quick test_process_vdso_calls;
          Alcotest.test_case "ps builtin" `Quick test_ps_builtin;
          Alcotest.test_case "tick counts calls" `Quick test_tick_counts_vdso_calls;
        ] );
      ( "testbed",
        [
          Alcotest.test_case "shape" `Quick test_testbed_shape;
          Alcotest.test_case "isolation baseline" `Quick test_testbed_isolation_baseline;
        ] );
    ]
