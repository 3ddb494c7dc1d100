import json
import os
from types import SimpleNamespace

import pytest

from friendmesh import cli, identity
from friendmesh.caservice import CAService
from friendmesh.config import RendezvousConfig
from friendmesh.errors import ProtocolError
from friendmesh.identity import SignedDigest
from friendmesh.netio import TcpServer
from friendmesh.peer import Peer
from friendmesh.records import RegistrationRecord
from friendmesh.rendezvous import RendezvousServer
from friendmesh.simnet import cli as sim_cli


def test_sim_cli_run_replay_report(tmp_path, capsys):
    scenario = tmp_path / "tiny.json"
    scenario.write_text(json.dumps({"seed": 5, "duration_ms": 4000, "n_peers": 3}))
    trace = tmp_path / "tiny.trace"

    assert sim_cli.main(["run", str(scenario), "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "metric messages=" in out
    assert "availability" in out

    assert sim_cli.main(["replay", str(trace)]) == 0
    assert "replay ok" in capsys.readouterr().out

    assert sim_cli.main(["report", str(trace)]) == 0
    assert "pulls ok / failed" in capsys.readouterr().out


def test_sim_cli_replay_detects_tampering(tmp_path, capsys):
    scenario = tmp_path / "tiny.json"
    scenario.write_text(json.dumps({"seed": 6, "duration_ms": 3000, "n_peers": 2}))
    trace = tmp_path / "t.trace"
    sim_cli.main(["run", str(scenario), "--trace", str(trace)])
    capsys.readouterr()
    text = trace.read_text().splitlines()
    text[5] = text[5] + " tampered"
    trace.write_text("\n".join(text) + "\n")
    assert sim_cli.main(["replay", str(trace)]) == 1


def test_sim_cli_bad_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"seed": 1, "no_such_field": 2}')
    assert sim_cli.main(["run", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.fixture()
def live_servers(tmp_path):
    ca = identity.CAState("cli-ca", identity.generate_keypair("ec-p256"))
    ca_pub_path = tmp_path / "ca.pub"
    ca_pub_path.write_bytes(ca.public_key)
    ca_srv = TcpServer(CAService(ca)).start()
    rv = RendezvousServer(
        addr="pending", config=RendezvousConfig(db_url=str(tmp_path / "rv.sqlite")),
        ca_public_key=ca.public_key,
    )
    rv_srv = TcpServer(rv).start()
    rv.addr = rv_srv.addr
    yield ca_srv, rv_srv, str(ca_pub_path)
    ca_srv.stop()
    rv_srv.stop()


def peer_args(name, tmp_path, ca_srv, rv_srv, ca_pub, *extra):
    return [
        "peer", *extra,
        "--username", name,
        "--state", str(tmp_path / f"{name}.json"),
        "--ca", ca_srv.addr,
        "--ca-cert", ca_pub,
        "--rendezvous", rv_srv.addr,
    ]


def test_peer_cli_flow(tmp_path, capsys, live_servers):
    ca_srv, rv_srv, ca_pub = live_servers

    assert cli.main(peer_args("alice", tmp_path, ca_srv, rv_srv, ca_pub, "bootstrap")) == 0
    assert "registered at" in capsys.readouterr().out
    assert os.path.exists(tmp_path / "alice.json")

    assert cli.main(peer_args("bob", tmp_path, ca_srv, rv_srv, ca_pub, "bootstrap")) == 0
    capsys.readouterr()

    assert cli.main(peer_args("alice", tmp_path, ca_srv, rv_srv, ca_pub, "friend-request", "bob")) == 0
    capsys.readouterr()

    # Bob re-registers (picks the request up) via a fresh bootstrap.
    assert cli.main(peer_args("bob", tmp_path, ca_srv, rv_srv, ca_pub, "bootstrap")) == 0
    capsys.readouterr()
    assert cli.main(peer_args("bob", tmp_path, ca_srv, rv_srv, ca_pub, "status")) == 0
    assert "alice" in capsys.readouterr().out

    assert cli.main(peer_args("alice", tmp_path, ca_srv, rv_srv, ca_pub, "status")) == 0
    out = capsys.readouterr().out
    assert "pending out: bob" in out


def test_peer_cli_error_paths(tmp_path, capsys, live_servers):
    ca_srv, rv_srv, ca_pub = live_servers
    assert cli.main(peer_args("carol", tmp_path, ca_srv, rv_srv, ca_pub, "bootstrap")) == 0
    capsys.readouterr()
    assert cli.main(peer_args("carol", tmp_path, ca_srv, rv_srv, ca_pub, "locate", "ghost")) == 1
    assert "not_found" in capsys.readouterr().err


@pytest.mark.parametrize("relay,shown", [
    (("", 0), "bob @ 10.0.0.1:7500 via rv"),
    (("10.0.0.9", 7300), "bob @ 10.0.0.9:7300 (relay) via rv"),
])
def test_peer_cli_locate_prints_the_route(tmp_path, capsys, live_servers, monkeypatch, relay, shown):
    ca_srv, rv_srv, ca_pub = live_servers
    record = RegistrationRecord("bob", "10.0.0.1", 7500 if not relay[0] else 0, "tcp", *relay,
                                "phrase", b"", SignedDigest(b"", b""))
    monkeypatch.setattr(Peer, "locate_friend", lambda self, name: (record, "rv"))
    assert cli.main(peer_args("erin", tmp_path, ca_srv, rv_srv, ca_pub, "locate", "bob")) == 0
    assert capsys.readouterr().out.strip() == shown


def test_profile_cli_local_post_and_read(tmp_path, capsys, live_servers):
    ca_srv, rv_srv, ca_pub = live_servers
    common = [
        "--username", "dora", "--state", str(tmp_path / "dora.json"),
        "--ca", ca_srv.addr, "--ca-cert", ca_pub, "--rendezvous", rv_srv.addr,
    ]
    assert cli.main(["peer", "bootstrap", *common]) == 0
    capsys.readouterr()
    assert cli.main([
        "profile", "post", "--path", "share_board", "--id", "p1", "--text", "hello", *common,
    ]) == 0
    assert "version 1" in capsys.readouterr().out
    assert cli.main(["profile", "read", *common]) == 0
    assert "share_board/p1" in capsys.readouterr().out


def test_ca_writes_its_public_point_beside_its_key(tmp_path, monkeypatch):
    def sleep(seconds):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "time", SimpleNamespace(sleep=sleep))
    key = str(tmp_path / "ca.key")
    assert cli.main(["ca", "--port", "0", "--key", key, "--state", str(tmp_path / "ca.log")]) == 0
    assert (tmp_path / "ca.pub").read_bytes() == identity.load_keypair(key).public_key


def test_ca_cert_refuses_the_ca_private_key_file(tmp_path, capsys, live_servers):
    ca_srv, rv_srv, _ = live_servers
    ca_key = str(tmp_path / "ca.key")
    identity.save_keypair(identity.generate_keypair("ec-p256"), ca_key)
    with pytest.raises(SystemExit):
        cli.main(peer_args("mallory", tmp_path, ca_srv, rv_srv, ca_key, "bootstrap"))
    assert "not a CA public key file" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "mallory.json")


@pytest.mark.parametrize("command", ["rendezvous", "peer"])
def test_cli_servers_run_their_upkeep(tmp_path, monkeypatch, command):
    # The serving loop calls tick() once per period, and a ProtocolError
    # from one tick does not stop the next.
    ca_pub = str(tmp_path / "ca.pub")
    with open(ca_pub, "wb") as fh:
        fh.write(identity.generate_keypair("ec-p256").public_key)
    service = RendezvousServer if command == "rendezvous" else Peer
    ticks = []

    def failing_tick(self):
        ticks.append(self)
        raise ProtocolError("unreachable")

    sleeps = []

    def sleep(seconds):
        sleeps.append(seconds)
        if len(sleeps) > 2:
            raise KeyboardInterrupt

    monkeypatch.setattr(service, "tick", failing_tick)
    monkeypatch.setattr(cli, "time", SimpleNamespace(sleep=sleep))
    if command == "rendezvous":
        argv = ["rendezvous", "--port", "0", "--db", str(tmp_path / "rv.sqlite"),
                "--ca-cert", ca_pub, "--ring"]
    else:
        argv = ["peer", "serve", "--username", "erin", "--state", str(tmp_path / "erin.json"),
                "--ca-cert", ca_pub, "--port", "0"]
    assert cli.main(argv) == 0
    assert len(ticks) == 2
    assert sleeps == [2.0, 2.0, 2.0]  # stabilization period; an unrelayed peer's 2 s
