(* Golden virtual time and telemetry of every corpus cell at the
   perfbench [corpus] shape: 4 domains under the default load, each
   configuration on one long-lived pooled testbed, cells in matrix
   order. (use case, config, mode, r_vtime_ns, telemetry). A
   speed-only change must leave every entry identical; do not
   regenerate. *)

let xen =
  [
    ("GNT-XDOM", "4.6", "exploit", 22724L,
     "3:3,20:17,32:21|f0|F0|d0|fl0|i3|p4|g17|e21|inj0|vs0|vf0|vfr0");
    ("GNT-XDOM", "4.6", "injection", 22676L,
     "3:2,20:17,32:21,40:1|f0|F0|d0|fl0|i2|p3|g17|e21|inj1|vs0|vf0|vfr0");
    ("GNT-XDOM", "4.8", "exploit", 20244L,
     "3:2,20:15,32:21|f1|F0|d0|fl0|i1|p2|g15|e21|inj0|vs0|vf0|vfr0");
    ("GNT-XDOM", "4.8", "injection", 22676L,
     "3:2,20:17,32:21,40:1|f0|F0|d0|fl0|i2|p3|g17|e21|inj1|vs0|vf0|vfr0");
    ("GNT-XDOM", "4.13", "exploit", 20244L,
     "3:2,20:15,32:21|f1|F0|d0|fl0|i1|p2|g15|e21|inj0|vs0|vf0|vfr0");
    ("GNT-XDOM", "4.13", "injection", 22676L,
     "3:2,20:17,32:21,40:1|f0|F0|d0|fl0|i2|p3|g17|e21|inj1|vs0|vf0|vfr0");
    ("VENOM-dm", "4.6", "exploit", 18494L,
     "20:14,32:18|f0|F0|d0|fl0|i0|p0|g14|e18|inj0|vs0|vf0|vfr0");
    ("VENOM-dm", "4.6", "injection", 18494L,
     "20:14,32:18|f0|F0|d0|fl0|i0|p0|g14|e18|inj1|vs0|vf0|vfr0");
    ("VENOM-dm", "4.8", "exploit", 18494L,
     "20:14,32:18|f0|F0|d0|fl0|i0|p0|g14|e18|inj0|vs0|vf0|vfr0");
    ("VENOM-dm", "4.8", "injection", 18494L,
     "20:14,32:18|f0|F0|d0|fl0|i0|p0|g14|e18|inj1|vs0|vf0|vfr0");
    ("VENOM-dm", "4.13", "exploit", 18494L,
     "20:14,32:18|f0|F0|d0|fl0|i0|p0|g14|e18|inj0|vs0|vf0|vfr0");
    ("VENOM-dm", "4.13", "injection", 18494L,
     "20:14,32:18|f0|F0|d0|fl0|i0|p0|g14|e18|inj1|vs0|vf0|vfr0");
    ("XSA-148-priv", "4.6", "exploit", 28502L,
     "1:1,20:14,32:18|f0|F0|d0|fl1|i0|p0|g14|e18|inj0|vs0|vf0|vfr0");
    ("XSA-148-priv", "4.6", "injection", 28240L,
     "20:14,32:18,40:1|f0|F0|d0|fl0|i0|p0|g14|e18|inj1|vs0|vf0|vfr0");
    ("XSA-148-priv", "4.8", "exploit", 18194L,
     "1:1,20:14,32:18|f1|F0|d0|fl0|i0|p0|g14|e18|inj0|vs0|vf0|vfr0");
    ("XSA-148-priv", "4.8", "injection", 28240L,
     "20:14,32:18,40:1|f0|F0|d0|fl0|i0|p0|g14|e18|inj1|vs0|vf0|vfr0");
    ("XSA-148-priv", "4.13", "exploit", 18194L,
     "1:1,20:14,32:18|f1|F0|d0|fl0|i0|p0|g14|e18|inj0|vs0|vf0|vfr0");
    ("XSA-148-priv", "4.13", "injection", 28240L,
     "20:14,32:18,40:1|f0|F0|d0|fl0|i0|p0|g14|e18|inj1|vs0|vf0|vfr0");
    ("XSA-182-test", "4.6", "exploit", 18346L,
     "1:2,20:14,32:18|f0|F0|d0|fl2|i0|p0|g14|e18|inj0|vs0|vf0|vfr0");
    ("XSA-182-test", "4.6", "injection", 17898L,
     "20:14,32:18,40:1|f0|F0|d0|fl0|i0|p0|g14|e18|inj1|vs0|vf0|vfr0");
    ("XSA-182-test", "4.8", "exploit", 18044L,
     "1:2,20:14,32:18|f1|F0|d0|fl1|i0|p0|g14|e18|inj0|vs0|vf0|vfr0");
    ("XSA-182-test", "4.8", "injection", 17898L,
     "20:14,32:18,40:1|f0|F0|d0|fl0|i0|p0|g14|e18|inj1|vs0|vf0|vfr0");
    ("XSA-182-test", "4.13", "exploit", 17474L,
     "1:1,20:14,32:18|f1|F0|d0|fl0|i0|p0|g14|e18|inj0|vs0|vf0|vfr0");
    ("XSA-182-test", "4.13", "injection", 18076L,
     "20:14,32:18,40:1|f0|F1|d0|fl0|i0|p0|g14|e18|inj1|vs0|vf0|vfr0");
    ("XSA-212-crash", "4.6", "exploit", 8709L,
     "3:1,12:1,20:7,32:6|f13|F1|d1|fl0|i1|p1|g0|e0|inj0|vs0|vf0|vfr0");
    ("XSA-212-crash", "4.6", "injection", 8351L,
     "20:7,32:6,40:1|f13|F1|d1|fl0|i0|p0|g0|e0|inj1|vs0|vf0|vfr0");
    ("XSA-212-crash", "4.8", "exploit", 18044L,
     "3:1,12:1,20:14,32:18|f1|F0|d0|fl0|i1|p1|g14|e18|inj0|vs0|vf0|vfr0");
    ("XSA-212-crash", "4.8", "injection", 8351L,
     "20:7,32:6,40:1|f13|F1|d1|fl0|i0|p0|g0|e0|inj1|vs0|vf0|vfr0");
    ("XSA-212-crash", "4.13", "exploit", 18044L,
     "3:1,12:1,20:14,32:18|f1|F0|d0|fl0|i1|p1|g14|e18|inj0|vs0|vf0|vfr0");
    ("XSA-212-crash", "4.13", "injection", 8351L,
     "20:7,32:6,40:1|f13|F1|d1|fl0|i0|p0|g0|e0|inj1|vs0|vf0|vfr0");
    ("XSA-212-priv", "4.6", "exploit", 454318L,
     "3:2,12:1,20:14,32:18|f0|F0|d0|fl0|i2055|p2|g14|e18|inj0|vs0|vf0|vfr0");
    ("XSA-212-priv", "4.6", "injection", 453390L,
     "20:14,32:18,40:1|f0|F0|d0|fl0|i2053|p0|g14|e18|inj1|vs0|vf0|vfr0");
    ("XSA-212-priv", "4.8", "exploit", 18214L,
     "3:1,12:1,20:14,32:18|f1|F0|d0|fl0|i1|p1|g14|e18|inj0|vs0|vf0|vfr0");
    ("XSA-212-priv", "4.8", "injection", 453390L,
     "20:14,32:18,40:1|f0|F0|d0|fl0|i2053|p0|g14|e18|inj1|vs0|vf0|vfr0");
    ("XSA-212-priv", "4.13", "exploit", 18214L,
     "3:1,12:1,20:14,32:18|f1|F0|d0|fl0|i1|p1|g14|e18|inj0|vs0|vf0|vfr0");
    ("XSA-212-priv", "4.13", "injection", 18586L,
     "20:14,32:18,40:1|f0|F1|d0|fl0|i1|p0|g14|e18|inj1|vs0|vf0|vfr0");
  ]

let kvm =
  [
    ("KVM-IDT", "stock", "exploit", 23790L,
     "|f0|F1|d0|fl0|i0|p0|g0|e0|inj0|vs0|vf0|vfr0");
    ("KVM-IDT", "stock", "injection", 24650L,
     "40:1|f0|F1|d0|fl0|i0|p0|g0|e0|inj1|vs0|vf0|vfr0");
    ("KVM-VMCS", "stock", "exploit", 23440L,
     "|f0|F1|d0|fl0|i0|p0|g0|e0|inj0|vs0|vf0|vfr0");
    ("KVM-VMCS", "stock", "injection", 24300L,
     "40:1|f0|F1|d0|fl0|i0|p0|g0|e0|inj1|vs0|vf0|vfr0");
  ]
