// The network edge end to end over real loopback sockets: the replay
// proof (answers served through the wire are bit-identical to direct
// Router::Route calls), the QoS overload property from the admission
// contract (under 2x overload only the lowest class present is shed and
// the accounting identity stays exact), the stats/shutdown control
// frames, and the hostile-peer taxonomy — truncated frames, oversized
// length prefixes, garbage bytes, mid-frame disconnects, slow-loris
// stalls — each of which must end in a precise kError frame and a
// dropped connection, never UB (the asan/tsan CI presets run this
// file against real sockets).

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gen/query_gen.h"
#include "gen/workload_gen.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "query/venue_catalog.h"
#include "server/query_service.h"

namespace itspq {
namespace net {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

template <typename T>
T ValueOrDie(StatusOr<T> value, const char* what) {
  if (!value.ok()) {
    ADD_FAILURE() << what << ": " << value.status().ToString();
    std::abort();
  }
  return *std::move(value);
}

VenueCatalog MakeCatalog(int num_venues = 2, uint64_t seed = 7) {
  FleetConfig config;
  config.num_venues = num_venues;
  config.seed = seed;
  config.min_floors = 1;
  config.max_floors = 2;
  config.min_shop_rows = 2;
  config.max_shop_rows = 3;
  std::vector<Venue> fleet =
      ValueOrDie(GenerateVenueFleet(config), "GenerateVenueFleet");
  VenueCatalog catalog;
  for (Venue& venue : fleet) {
    (void)ValueOrDie(catalog.AddVenue(std::move(venue), "itg-a+"), "AddVenue");
  }
  return catalog;
}

std::unique_ptr<NetServer> MakeTestServer(
    ServiceOptions service_opts = ServiceOptions(),
    NetServerOptions net_opts = NetServerOptions()) {
  auto service =
      ValueOrDie(MakeQueryService(MakeCatalog(), service_opts),
                 "MakeQueryService");
  return ValueOrDie(MakeNetServer(std::move(service), net_opts),
                    "MakeNetServer");
}

/// Spins until `cond` holds or ~5 s pass (sanitizer presets are slow).
bool WaitFor(const std::function<bool()>& cond) {
  for (int i = 0; i < 1000; ++i) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return cond();
}

/// Reads the next frame off a raw socket and decodes it as the server's
/// kError verdict; fails the test otherwise.
WireReply ReadErrorFrame(int fd) {
  std::string payload;
  Status error;
  WireReply reply;
  const FrameRead got = ReadFrame(fd, kDefaultMaxFrameBytes, &payload, &error);
  if (got != FrameRead::kFrame) {
    ADD_FAILURE() << "expected kError frame, got FrameRead "
                  << static_cast<int>(got) << ": " << error.ToString();
    return reply;
  }
  MsgType type = MsgType::kError;
  std::string_view body;
  EXPECT_TRUE(DecodeFrameHeader(payload, &type, &body).ok());
  EXPECT_EQ(type, MsgType::kError);
  EXPECT_TRUE(DecodeReplyBody(body, &reply).ok());
  return reply;
}

/// After the server's goodbye the socket must deliver EOF.
void ExpectEof(int fd) {
  std::string payload;
  Status error;
  EXPECT_EQ(ReadFrame(fd, kDefaultMaxFrameBytes, &payload, &error),
            FrameRead::kCleanClose)
      << error.ToString();
}

// ---------------------------------------------------------------------
// Replay: the socket answers exactly what the router answers.

TEST(NetReplayTest, WireAnswersAreBitIdenticalToDirectRoute) {
  ServiceOptions opts;
  opts.num_workers = 2;
  auto server = MakeTestServer(opts);

  MultiVenueWorkloadConfig config;
  config.num_requests = 60;
  config.seed = 11;
  config.options.use_snapshot_cache = true;
  std::vector<QueryRequest> workload = ValueOrDie(
      GenerateMultiVenueWorkload(server->service().catalog(), config),
      "GenerateMultiVenueWorkload");

  auto client =
      ValueOrDie(NetClient::Connect(server->port()), "NetClient::Connect");
  QueryContext ctx;
  for (const QueryRequest& request : workload) {
    const WireReply reply = ValueOrDie(
        client->Query(request, kInf, QosClass::kInteractive), "Query");
    const StatusOr<QueryResult> direct =
        server->service().router().Route(request, &ctx);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    ASSERT_EQ(reply.code, StatusCode::kOk);
    ASSERT_EQ(reply.found, direct->found);
    if (!direct->found) continue;
    // Bit-exact, not approximately-equal: the wire carries the doubles
    // verbatim and the backend is deterministic.
    EXPECT_EQ(reply.length_m, direct->path.length_m());
    EXPECT_EQ(reply.departure_seconds, direct->path.departure_seconds());
    const std::vector<PathStep>& steps = direct->path.steps();
    ASSERT_EQ(reply.steps.size(), steps.size());
    for (size_t i = 0; i < steps.size(); ++i) {
      EXPECT_EQ(reply.steps[i].door, steps[i].door);
      EXPECT_EQ(reply.steps[i].cumulative_m, steps[i].cumulative_m);
      EXPECT_EQ(reply.steps[i].arrival_seconds, steps[i].arrival_seconds);
    }
  }
  server->Stop();
  const NetServerStats net = server->Stats();
  EXPECT_EQ(net.decode_errors, 0u);
  EXPECT_EQ(net.connections_dropped, 0u);
}

// The three query families ride the same socket: every reachable entry
// and every itinerary leg that comes back over a kTemporalReply frame
// is bit-identical to a direct Route() call on the serving shard.
TEST(NetReplayTest, FamilyAnswersOverWireBitIdenticalToDirectRoute) {
  ServiceOptions opts;
  opts.num_workers = 2;
  auto server = MakeTestServer(opts);
  const ItGraph& graph = server->service().catalog().graph(0);

  std::vector<QueryRequest> workload;
  for (QueryKind kind : {QueryKind::kReachability,
                         QueryKind::kNearestFacility, QueryKind::kMultiStop}) {
    FamilyGenConfig config;
    config.kind = kind;
    config.num_queries = 6;
    config.seed = 23 + static_cast<uint64_t>(kind);
    std::vector<QueryRequest> family =
        ValueOrDie(GenerateFamilyQueries(graph, config), "family gen");
    workload.insert(workload.end(), family.begin(), family.end());
  }

  auto client =
      ValueOrDie(NetClient::Connect(server->port()), "NetClient::Connect");
  QueryContext ctx;
  size_t nonempty = 0;
  for (const QueryRequest& request : workload) {
    const WireReply reply = ValueOrDie(
        client->Query(request, kInf, QosClass::kInteractive), "Query");
    const StatusOr<QueryResult> direct =
        server->service().router().Route(request, &ctx);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    ASSERT_EQ(reply.code, StatusCode::kOk);
    EXPECT_EQ(reply.found, direct->found);

    ASSERT_EQ(reply.reachable.size(), direct->reachable.size());
    for (size_t i = 0; i < direct->reachable.size(); ++i) {
      EXPECT_EQ(reply.reachable[i].door, direct->reachable[i].door);
      EXPECT_EQ(reply.reachable[i].distance_m, direct->reachable[i].distance_m);
      EXPECT_EQ(reply.reachable[i].arrival_seconds,
                direct->reachable[i].arrival_seconds);
    }
    ASSERT_EQ(reply.legs.size(), direct->legs.size());
    for (size_t l = 0; l < direct->legs.size(); ++l) {
      EXPECT_EQ(reply.legs[l].length_m, direct->legs[l].length_m());
      EXPECT_EQ(reply.legs[l].departure_seconds,
                direct->legs[l].departure_seconds());
      const std::vector<PathStep>& steps = direct->legs[l].steps();
      ASSERT_EQ(reply.legs[l].steps.size(), steps.size());
      for (size_t s = 0; s < steps.size(); ++s) {
        EXPECT_EQ(reply.legs[l].steps[s].door, steps[s].door);
        EXPECT_EQ(reply.legs[l].steps[s].cumulative_m, steps[s].cumulative_m);
        EXPECT_EQ(reply.legs[l].steps[s].arrival_seconds,
                  steps[s].arrival_seconds);
      }
    }
    if (!reply.reachable.empty() || !reply.legs.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, 0u);
  server->Stop();
  EXPECT_EQ(server->Stats().decode_errors, 0u);
}

// A NaN departure fails over the wire exactly like a local Route()
// call would — never a silent found == false. The decoder treats it as
// connection-fatal (structural, not semantic), so each probe needs a
// fresh client.
TEST(NetReplayTest, NanDepartureOverWireFailsLikeLocal) {
  auto server = MakeTestServer();
  const ItGraph& graph = server->service().catalog().graph(0);

  MultiVenueWorkloadConfig p2p_config;
  p2p_config.num_requests = 1;
  p2p_config.seed = 29;
  QueryRequest p2p = ValueOrDie(
      GenerateMultiVenueWorkload(server->service().catalog(), p2p_config),
      "GenerateMultiVenueWorkload")[0];
  p2p.departure = Instant(std::numeric_limits<double>::quiet_NaN());

  FamilyGenConfig family_config;
  family_config.kind = QueryKind::kReachability;
  family_config.num_queries = 1;
  family_config.seed = 31;
  QueryRequest family =
      ValueOrDie(GenerateFamilyQueries(graph, family_config), "family gen")[0];
  family.departure = Instant(std::numeric_limits<double>::quiet_NaN());

  // Both codecs — the kQuery path and the kTemporalQuery path.
  for (const QueryRequest& request : {p2p, family}) {
    auto client =
        ValueOrDie(NetClient::Connect(server->port()), "NetClient::Connect");
    auto reply = client->Query(request, kInf, QosClass::kInteractive);
    ASSERT_FALSE(reply.ok());
    EXPECT_EQ(reply.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(reply.status().message().find("departure"), std::string::npos)
        << reply.status().ToString();
  }
  // The malformed frames never reached admission.
  EXPECT_EQ(server->service().Stats().submitted, 0u);
}

// Hostile endpoint coordinates over the wire, on all four kinds (p2p
// rides kQuery, the families kTemporalQuery): a NaN or infinite source,
// target or waypoint is a structural decode error, connection-fatal
// like a NaN departure; a finite but absurd one (1e300) decodes and
// fails per query with kInvalidArgument wherever the kind uses it.
TEST(NetReplayTest, HostileEndpointsOverWireFailLikeLocal) {
  auto server = MakeTestServer();
  const ItGraph& graph = server->service().catalog().graph(0);
  enum Where { kSource, kTarget, kWaypoint };
  for (QueryKind kind :
       {QueryKind::kPointToPoint, QueryKind::kReachability,
        QueryKind::kNearestFacility, QueryKind::kMultiStop}) {
    QueryRequest base;
    if (kind == QueryKind::kPointToPoint) {
      MultiVenueWorkloadConfig config;
      config.num_requests = 1;
      config.seed = 29;
      base = ValueOrDie(
          GenerateMultiVenueWorkload(server->service().catalog(), config),
          "GenerateMultiVenueWorkload")[0];
    } else {
      FamilyGenConfig config;
      config.kind = kind;
      config.num_queries = 1;
      config.seed = 31;
      base = ValueOrDie(GenerateFamilyQueries(graph, config), "family gen")[0];
    }
    if (base.waypoints.empty()) base.waypoints = {base.source};
    // One live connection for the per-query failures; a fresh one after
    // each connection-fatal frame.
    auto client =
        ValueOrDie(NetClient::Connect(server->port()), "NetClient::Connect");
    for (Where where : {kSource, kTarget, kWaypoint}) {
      // kQuery frames carry no waypoints.
      if (where == kWaypoint && kind == QueryKind::kPointToPoint) continue;
      for (double bad : {std::numeric_limits<double>::quiet_NaN(), kInf,
                         -kInf, 1e300}) {
        QueryRequest request = base;
        IndoorPoint& point = where == kSource   ? request.source
                             : where == kTarget ? request.target
                                                : request.waypoints[0];
        point.p.x = bad;
        const std::string what = "kind " +
                                 std::to_string(static_cast<int>(kind)) +
                                 " where " + std::to_string(where) +
                                 " value " + std::to_string(bad);
        if (!std::isfinite(bad)) {
          auto fatal =
              ValueOrDie(NetClient::Connect(server->port()), "Connect");
          auto reply = fatal->Query(request, kInf, QosClass::kInteractive);
          ASSERT_FALSE(reply.ok()) << what;
          EXPECT_EQ(reply.status().code(), StatusCode::kFailedPrecondition)
              << what;
          EXPECT_NE(reply.status().message().find("not finite"),
                    std::string::npos)
              << what << ": " << reply.status().ToString();
          continue;
        }
        const bool used =
            where == kSource ||
            (where == kTarget && (kind == QueryKind::kPointToPoint ||
                                  kind == QueryKind::kMultiStop)) ||
            (where == kWaypoint && kind == QueryKind::kMultiStop);
        const WireReply reply = ValueOrDie(
            client->Query(request, kInf, QosClass::kInteractive), "Query");
        EXPECT_EQ(reply.code, used ? StatusCode::kInvalidArgument
                                   : StatusCode::kOk)
            << what;
      }
    }
  }
  // The malformed frames never reached admission; only the 1e300 ones
  // did.
  const size_t admitted = server->service().Stats().submitted;
  EXPECT_EQ(admitted, 11u);
}

// Semantically malformed family parameters (k == 0 here) are per-query
// failures: the reply carries kInvalidArgument and the connection keeps
// serving.
TEST(NetReplayTest, SemanticFamilyErrorsAreReplyNotConnectionFatal) {
  auto server = MakeTestServer();
  const ItGraph& graph = server->service().catalog().graph(0);
  FamilyGenConfig config;
  config.kind = QueryKind::kNearestFacility;
  config.num_queries = 1;
  config.seed = 37;
  QueryRequest request =
      ValueOrDie(GenerateFamilyQueries(graph, config), "family gen")[0];
  request.k = 0;

  auto client =
      ValueOrDie(NetClient::Connect(server->port()), "NetClient::Connect");
  const WireReply bad = ValueOrDie(
      client->Query(request, kInf, QosClass::kInteractive), "Query");
  EXPECT_EQ(bad.code, StatusCode::kInvalidArgument);
  // Same connection, same query with a legal k: served.
  request.k = 1;
  const WireReply good = ValueOrDie(
      client->Query(request, kInf, QosClass::kInteractive), "Query");
  EXPECT_EQ(good.code, StatusCode::kOk);
  EXPECT_EQ(server->Stats().connections_dropped, 0u);
}

// ---------------------------------------------------------------------
// The QoS overload property: 2x the queue limit offered, all of it
// surviving except the background class, accounting exact.

TEST(NetQosTest, OverloadShedsOnlyLowestClassWithExactAccounting) {
  constexpr size_t kCapacity = 12;
  ServiceOptions opts;
  opts.num_workers = 2;
  opts.queue_capacity = kCapacity;
  opts.start_paused = true;  // admission only, until Resume()
  auto server = MakeTestServer(opts);
  QueryService& service = server->service();

  MultiVenueWorkloadConfig config;
  config.num_requests = static_cast<int>(2 * kCapacity);
  config.seed = 13;
  std::vector<QueryRequest> workload =
      ValueOrDie(GenerateMultiVenueWorkload(service.catalog(), config),
                 "GenerateMultiVenueWorkload");

  // Background first: fills the queue to its limit.
  auto background =
      ValueOrDie(NetClient::Connect(server->port()), "connect background");
  for (size_t i = 0; i < kCapacity; ++i) {
    (void)ValueOrDie(
        background->Send(workload[i], kInf, QosClass::kBackground), "Send");
  }
  ASSERT_TRUE(WaitFor([&] {
    ServiceStats s = service.Stats();
    return s.submitted == kCapacity && s.queue_depth == kCapacity;
  })) << "background traffic never filled the queue";

  // 2x overload: a second queue's worth of higher-class traffic. Every
  // arrival finds the queue full and must displace the youngest
  // background request — interactive and batch never shed each other
  // because together they fit exactly.
  auto foreground =
      ValueOrDie(NetClient::Connect(server->port()), "connect foreground");
  for (size_t i = 0; i < kCapacity; ++i) {
    const QosClass qos =
        i < kCapacity / 2 ? QosClass::kInteractive : QosClass::kBatch;
    (void)ValueOrDie(
        foreground->Send(workload[kCapacity + i], kInf, qos), "Send");
  }

  // Every background reply must come back shed; reading them all is
  // also the barrier proving displacement completed.
  for (size_t i = 0; i < kCapacity; ++i) {
    const WireReply reply =
        ValueOrDie(background->ReceiveReply(), "background reply");
    EXPECT_EQ(reply.code, StatusCode::kResourceExhausted) << "reply " << i;
  }

  service.Resume();
  for (size_t i = 0; i < kCapacity; ++i) {
    const WireReply reply =
        ValueOrDie(foreground->ReceiveReply(), "foreground reply");
    EXPECT_EQ(reply.code, StatusCode::kOk) << "reply " << i;
  }

  // The audited ledger over the wire, exactly as the loadgen reads it.
  auto auditor =
      ValueOrDie(NetClient::Connect(server->port()), "connect auditor");
  const WireStats stats = ValueOrDie(auditor->FetchStats(), "FetchStats");
  EXPECT_EQ(stats.submitted, 2 * kCapacity);
  EXPECT_EQ(stats.served, kCapacity);
  EXPECT_EQ(stats.shed, kCapacity);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.timed_out, 0u);
  EXPECT_EQ(stats.served + stats.shed + stats.rejected + stats.timed_out,
            stats.submitted);
  // The shed mass sits entirely in the background class; both higher
  // classes came through unscathed.
  EXPECT_EQ(stats.shed_by_class[0], 0u);
  EXPECT_EQ(stats.shed_by_class[1], 0u);
  EXPECT_EQ(stats.shed_by_class[2], kCapacity);
  EXPECT_EQ(stats.served_by_class[0], kCapacity / 2);
  EXPECT_EQ(stats.served_by_class[1], kCapacity / 2);
  EXPECT_EQ(stats.served_by_class[2], 0u);
}

// ---------------------------------------------------------------------
// Control frames.

TEST(NetControlTest, ShutdownFrameAcksAndUnblocksTheServer) {
  auto server = MakeTestServer();
  EXPECT_FALSE(server->shutdown_requested());
  auto client =
      ValueOrDie(NetClient::Connect(server->port()), "NetClient::Connect");
  ASSERT_TRUE(client->RequestShutdown().ok());
  EXPECT_TRUE(server->shutdown_requested());
  server->WaitForShutdownRequest();  // must not block
  server->Stop();
}

TEST(NetControlTest, StatsFrameReflectsTraffic) {
  auto server = MakeTestServer();
  auto client =
      ValueOrDie(NetClient::Connect(server->port()), "NetClient::Connect");
  MultiVenueWorkloadConfig config;
  config.num_requests = 8;
  config.seed = 17;
  std::vector<QueryRequest> workload = ValueOrDie(
      GenerateMultiVenueWorkload(server->service().catalog(), config),
      "GenerateMultiVenueWorkload");
  for (const QueryRequest& request : workload) {
    (void)ValueOrDie(client->Query(request, kInf, QosClass::kBatch), "Query");
  }
  const WireStats stats = ValueOrDie(client->FetchStats(), "FetchStats");
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.served, 8u);
  EXPECT_EQ(stats.served_by_class[1], 8u);
}

// Replies are small frames; Nagle on the server's side would hold each
// one back until the client's delayed ACK. Both ends must disable it:
// the client fd, and the server's accepted fd — found in this process
// as the socket whose peer is the client's local address.
TEST(NetSocketTest, AcceptedAndConnectedSocketsSetNoDelay) {
  auto server = MakeTestServer();
  ScopedFd client = ValueOrDie(ConnectLoopback(server->port()), "connect");
  ASSERT_TRUE(
      WaitFor([&] { return server->Stats().connections_accepted == 1; }));

  auto no_delay = [](int fd) {
    int value = 0;
    socklen_t len = sizeof value;
    EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len), 0);
    return value != 0;
  };
  EXPECT_TRUE(no_delay(client.get()));

  sockaddr_in client_addr = {};
  socklen_t addr_len = sizeof client_addr;
  ASSERT_EQ(::getsockname(client.get(),
                          reinterpret_cast<sockaddr*>(&client_addr),
                          &addr_len),
            0);
  int accepted = -1;
  for (int fd = 0; fd < 4096 && accepted < 0; ++fd) {
    sockaddr_in peer = {};
    socklen_t peer_len = sizeof peer;
    if (fd == client.get() ||
        ::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &peer_len) != 0 ||
        peer.sin_family != AF_INET) {
      continue;
    }
    if (peer.sin_port == client_addr.sin_port &&
        peer.sin_addr.s_addr == client_addr.sin_addr.s_addr) {
      accepted = fd;
    }
  }
  ASSERT_GE(accepted, 0) << "server-side socket of the connection not found";
  EXPECT_TRUE(no_delay(accepted));
}

// ---------------------------------------------------------------------
// Hostile peers. Every scenario must end in a precise kError frame
// (best effort), a dropped connection, and an intact server.

TEST(NetHostileTest, OversizedLengthPrefixIsRejectedBeforeAllocation) {
  NetServerOptions net_opts;
  net_opts.max_frame_bytes = 1024;
  auto server = MakeTestServer(ServiceOptions(), net_opts);
  ScopedFd fd = ValueOrDie(ConnectLoopback(server->port()), "connect");
  const uint32_t huge = 0xFFFFFFFFu;
  std::string bytes(reinterpret_cast<const char*>(&huge), sizeof huge);
  ASSERT_TRUE(WriteFrame(fd.get(), bytes).ok());
  const WireReply err = ReadErrorFrame(fd.get());
  EXPECT_EQ(err.code, StatusCode::kInvalidArgument);
  EXPECT_NE(err.message.find("exceeds limit"), std::string::npos);
  ExpectEof(fd.get());
  EXPECT_TRUE(WaitFor([&] { return server->Stats().connections_dropped == 1; }));
}

TEST(NetHostileTest, ZeroLengthFrameIsRejected) {
  auto server = MakeTestServer();
  ScopedFd fd = ValueOrDie(ConnectLoopback(server->port()), "connect");
  const uint32_t zero = 0;
  ASSERT_TRUE(WriteFrame(fd.get(),
                         std::string(reinterpret_cast<const char*>(&zero),
                                     sizeof zero))
                  .ok());
  const WireReply err = ReadErrorFrame(fd.get());
  EXPECT_EQ(err.code, StatusCode::kInvalidArgument);
  EXPECT_NE(err.message.find("zero-length"), std::string::npos);
  ExpectEof(fd.get());
}

TEST(NetHostileTest, GarbageMessageTypeIsRejected) {
  auto server = MakeTestServer();
  ScopedFd fd = ValueOrDie(ConnectLoopback(server->port()), "connect");
  // A well-formed frame carrying nonsense: type byte 0x2a.
  const uint32_t len = 5;
  std::string bytes(reinterpret_cast<const char*>(&len), sizeof len);
  bytes += "\x2ajunk";
  ASSERT_TRUE(WriteFrame(fd.get(), bytes).ok());
  const WireReply err = ReadErrorFrame(fd.get());
  EXPECT_EQ(err.code, StatusCode::kInvalidArgument);
  EXPECT_NE(err.message.find("message type"), std::string::npos);
  ExpectEof(fd.get());
}

TEST(NetHostileTest, TruncatedQueryBodyIsRejected) {
  auto server = MakeTestServer();
  ScopedFd fd = ValueOrDie(ConnectLoopback(server->port()), "connect");
  // A kQuery frame whose body stops mid-field: take a valid frame and
  // re-declare a shorter payload, sending only that much.
  WireQuery query;
  query.request_id = 1;
  query.deadline_micros = kInf;
  std::string frame = EncodeQueryFrame(query);
  const uint32_t short_len = 9;  // type byte + request_id only
  std::memcpy(&frame[0], &short_len, sizeof short_len);
  frame.resize(sizeof short_len + short_len);
  ASSERT_TRUE(WriteFrame(fd.get(), frame).ok());
  const WireReply err = ReadErrorFrame(fd.get());
  EXPECT_EQ(err.code, StatusCode::kInvalidArgument);
  EXPECT_NE(err.message.find("truncated"), std::string::npos);
  ExpectEof(fd.get());
}

TEST(NetHostileTest, BadQosByteOnTheWireIsRejected) {
  auto server = MakeTestServer();
  ScopedFd fd = ValueOrDie(ConnectLoopback(server->port()), "connect");
  WireQuery query;
  query.request_id = 1;
  query.deadline_micros = 100;
  std::string frame = EncodeQueryFrame(query);
  frame[4 + 1 + 8 + 4] = static_cast<char>(kNumQosClasses);  // qos byte
  ASSERT_TRUE(WriteFrame(fd.get(), frame).ok());
  const WireReply err = ReadErrorFrame(fd.get());
  EXPECT_EQ(err.code, StatusCode::kInvalidArgument);
  EXPECT_NE(err.message.find("QoS"), std::string::npos);
  ExpectEof(fd.get());
  // The malformed submission never reached admission.
  EXPECT_EQ(server->service().Stats().submitted, 0u);
}

TEST(NetHostileTest, MidFrameDisconnectIsCountedAndSurvived) {
  auto server = MakeTestServer();
  {
    ScopedFd fd = ValueOrDie(ConnectLoopback(server->port()), "connect");
    const uint32_t len = 100;
    std::string bytes(reinterpret_cast<const char*>(&len), sizeof len);
    bytes += "\x01only-ten";  // 9 of the promised 100 bytes
    ASSERT_TRUE(WriteFrame(fd.get(), bytes).ok());
  }  // destructor closes mid-frame
  EXPECT_TRUE(WaitFor([&] { return server->Stats().connections_dropped == 1; }));
  // The server is still fully alive for well-behaved clients.
  auto client =
      ValueOrDie(NetClient::Connect(server->port()), "NetClient::Connect");
  EXPECT_TRUE(client->FetchStats().ok());
}

TEST(NetHostileTest, SlowLorisMidFrameIsDroppedButIdleIsKept) {
  NetServerOptions net_opts;
  net_opts.recv_timeout_seconds = 0.2;
  auto server = MakeTestServer(ServiceOptions(), net_opts);

  // Idle BETWEEN frames far past the guard window: the connection must
  // survive and still answer.
  auto idle_client =
      ValueOrDie(NetClient::Connect(server->port()), "NetClient::Connect");
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  EXPECT_TRUE(idle_client->FetchStats().ok())
      << "idle connection was dropped by the slow-loris guard";

  // Stalling MID-frame trips the guard: send half a length prefix and
  // nothing more.
  ScopedFd loris = ValueOrDie(ConnectLoopback(server->port()), "connect");
  ASSERT_TRUE(WriteFrame(loris.get(), std::string("\x08\x00", 2)).ok());
  const WireReply err = ReadErrorFrame(loris.get());
  EXPECT_EQ(err.code, StatusCode::kDeadlineExceeded);
  EXPECT_NE(err.message.find("slow-loris"), std::string::npos);
  ExpectEof(loris.get());
  EXPECT_TRUE(WaitFor([&] { return server->Stats().connections_dropped == 1; }));
}

}  // namespace
}  // namespace net
}  // namespace itspq
