(** The semantics-aware NIDS, re-exported as one namespace.

    Reproduction of Scheirer & Chuah, "Network Intrusion Detection with
    Semantics-Aware Capability" (IPPS 2006).  The usual entry points:

    - {!Pipeline} / {!Config} / {!Alert} — run the NIDS;
    - {!Template} / {!Template_lib} / {!Matcher} — the semantic analyzer;
    - {!Admmutate} / {!Clet} — polymorphic engines for evaluation;
    - {!Shellcodes} / {!Code_red} / {!Iis_asp} — the exploit corpus;
    - {!Benign_gen} / {!Worm_gen} — workload synthesis;
    - {!Pcap} / {!Packet} — captures and packets. *)

(* utilities *)
module Rng = Sanids_util.Rng
(* observability: Obs.Registry, Obs.Snapshot, Obs.Span, Obs.Export *)
module Obs = Sanids_obs
module Byte_io = Sanids_util.Byte_io
module Bqueue = Sanids_util.Bqueue
module Budget = Sanids_util.Budget
module Hexdump = Sanids_util.Hexdump
module Entropy = Sanids_util.Entropy
module Spec = Sanids_util.Spec
module File = Sanids_util.File

(* network substrate *)
module Ipaddr = Sanids_net.Ipaddr
module Checksum = Sanids_net.Checksum
module Tcp = Sanids_net.Tcp
module Packet = Sanids_net.Packet
module Flow = Sanids_net.Flow
module Ethernet = Sanids_net.Ethernet
module Pcap = Sanids_pcap.Pcap

(* resilient ingest: typed decode errors and fault injection *)
module Ingest = Sanids_ingest.Ingest
module Fault = Sanids_ingest.Fault
module Source = Sanids_ingest.Source

(* x86 and IR *)
module Reg = Sanids_x86.Reg
module Insn = Sanids_x86.Insn
module Encode = Sanids_x86.Encode
module Decode = Sanids_x86.Decode
module Pretty = Sanids_x86.Pretty
module Asm = Sanids_x86.Asm
module Emulator = Sanids_x86.Emulator
module Sem = Sanids_ir.Sem
module Trace = Sanids_ir.Trace
module Defuse = Sanids_ir.Defuse
module Cfg = Sanids_ir.Cfg

(* the semantic analyzer *)
module Template = Sanids_semantic.Template
module Template_lib = Sanids_semantic.Template_lib
module Matcher = Sanids_semantic.Matcher
module Breaker = Sanids_semantic.Breaker

(* dynamic confirmation: the emulator as a second verdict stage *)
module Confirm = Sanids_confirm.Confirm
module Emu_test = Sanids_confirm.Emu_test

(* classification and extraction *)
module Honeypot = Sanids_classify.Honeypot
module Scan_detector = Sanids_classify.Scan_detector
module Classifier = Sanids_classify.Classifier
module Unicode = Sanids_extract.Unicode
module Repetition = Sanids_extract.Repetition
module Extractor = Sanids_extract.Extractor

(* polymorphic engines and exploit corpus *)
module Nops = Sanids_polymorph.Nops
module Junk = Sanids_polymorph.Junk
module Admmutate = Sanids_polymorph.Admmutate
module Clet = Sanids_polymorph.Clet
module Metamorph = Sanids_polymorph.Metamorph
module Shellcodes = Sanids_exploits.Shellcodes
module Exploit_gen = Sanids_exploits.Exploit_gen
module Code_red = Sanids_exploits.Code_red
module Iis_asp = Sanids_exploits.Iis_asp
module Netsky = Sanids_exploits.Netsky
module Slammer = Sanids_exploits.Slammer

(* detector-artifact lint *)
module Finding = Sanids_staticlint.Finding
module Lint_dom = Sanids_staticlint.Dom
module Template_lint = Sanids_staticlint.Template_lint
module Subsume = Sanids_staticlint.Subsume
module Rule_lint = Sanids_staticlint.Rule_lint
module Trace_lint = Sanids_staticlint.Trace_lint
module Lint_selftest = Sanids_staticlint.Selftest
module Lint = Sanids_staticlint.Lint

(* baselines *)
module Payl = Sanids_baseline.Payl
module Rule = Sanids_baseline.Rule
module Siggen = Sanids_baseline.Siggen

(* the NIDS *)
module Config = Sanids_nids.Config
module Pipeline = Sanids_nids.Pipeline
module Alert = Sanids_nids.Alert
module Stats = Sanids_nids.Stats
module Parallel = Sanids_nids.Parallel
module Watchdog = Sanids_nids.Watchdog

(* the serving daemon *)
module Lifecycle = Sanids_serve.Lifecycle
module Httpd = Sanids_serve.Httpd
module Serve = Sanids_serve.Serve

(* the federated cluster: delta shipping, dedup, failure detection *)
module Backoff = Sanids_util.Backoff
module Cluster_delta = Sanids_cluster.Delta
module Cluster_dedup = Sanids_cluster.Dedup
module Cluster_detector = Sanids_cluster.Detector
module Cluster_fault = Sanids_cluster.Fault
module Spool = Sanids_cluster.Spool
module Sensor = Sanids_cluster.Sensor
module Aggregator = Sanids_cluster.Aggregator

(* workloads *)
module Benign_gen = Sanids_workload.Benign_gen
module Worm_gen = Sanids_workload.Worm_gen
module Adversarial = Sanids_workload.Adversarial

(* propagation and containment models *)
module Epidemic = Sanids_epidemic.Model
module Containment = Sanids_epidemic.Containment
